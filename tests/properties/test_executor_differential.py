"""Differential testing: the SIMT executor vs an independent evaluator.

Random straight-line programs are executed on the functional engine and
on a deliberately naive per-lane interpreter written in this test; the
final register files must agree bit for bit.  The programs cover every
ALU and SFU opcode in ``.s32`` and ``.f32`` form, ``setp`` with every
comparison feeding ``selp`` and ``@$p`` / ``@!$p`` guarded writes, shift
counts outside 0-63, division and remainder by zero, every special
register and both kinds of kernel parameter, on a grid whose blocks are
not a warp multiple.  This catches vectorisation mistakes (masking,
dtype, operand order, decode-time binding) that kernel-level oracles
can miss.

The interpreter computes one lane at a time with numpy scalars, so its
arithmetic is the same IEEE and two's-complement arithmetic the engine's
vector ops perform; it shares no code with the engine.  What it models
at warp granularity is only what the architecture defines per warp: a
register's storage dtype, which a partial write promotes to float64 when
the old and new vectors disagree.
"""

import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dim3, GlobalMemory, LaunchConfig, assemble
from repro.isa.instructions import Opcode, source_arity
from repro.simt.executor import ExecutionContext, FunctionalEngine, ThreadBlockState
from repro.simt.memory import KernelParams

I, F = np.int64, np.float64
WARP = 4
#: 3x2 blocks: six threads, so the second warp of every block has two
#: dead lanes; the 2x2 grid gives every ctaid component two values.
BLOCK = (3, 2)
GRID = (2, 2)
PARAMS = {"k": 6, "f": -1.5}

REGS = ["r0", "r1", "r2", "r3"]
PREDS = ["p0", "p1"]
SPECIALS = [
    "%tid.x", "%tid.y", "%laneid", "%warpid", "%ctaid.x", "%ctaid.y",
    "%ntid.x", "%ntid.y", "%nctaid.x", "%smem_base",
]
INT_IMMEDIATES = ["0", "1", "3", "7", "-1", "-2", "64", "70", "0x7fffffff"]
FLOAT_IMMEDIATES = ["0.5", "-2.25", "3.0", "0.0", "-0.0", "1e300"]
SOURCES = (
    [f"${r}" for r in REGS] + ["$p0"] + SPECIALS + ["%param.k", "%param.f"]
    + INT_IMMEDIATES + FLOAT_IMMEDIATES
)
GUARDS = ["", "@$p0 ", "@!$p0 ", "@$p1 ", "@!$p1 "]
DTYPES = ["s32", "f32"]
CMPS = ["eq", "ne", "lt", "le", "gt", "ge"]
#: Every register-writing ALU / SFU opcode (``selp`` and ``setp`` apart).
ALU_OPS = [
    op.value for op in Opcode
    if op.value not in ("selp", "setp") and source_arity(op) > 0
    and op not in (Opcode.LD, Opcode.ST, Opcode.ATOM)
]


# -- the naive per-lane interpreter ---------------------------------------------


def _to_int(x):
    return np.trunc(x).astype(I) if isinstance(x, np.floating) else I(x)


def _to_float(x):
    return F(x)


#: (dtype, operand class) -> per-lane cast.  Bitwise ops truncate even
#: in ``.f32`` form; SFU ops widen even in ``.s32`` form.
_CASTS = {
    ("s32", "typed"): _to_int,
    ("f32", "typed"): _to_float,
    ("s32", "int"): _to_int,
    ("f32", "int"): lambda x: _to_int(_to_float(x)),
    ("s32", "float"): lambda x: _to_float(_to_int(x)),
    ("f32", "float"): _to_float,
}
_BITWISE = {"and", "or", "xor", "not", "shl", "shr"}
_SFU = {"rcp", "sqrt", "ex2", "lg2", "sin", "cos"}


def _safe_div(a, b):
    return _to_float(a) / _to_float(b) if b != 0 else F(0.0)


def _shift_count(b):
    return I(min(max(int(b), 0), 63))


def _lane_op(op, dtype, args):
    """One lane of ``op``: the engine's semantics, written per scalar."""
    is_float = dtype == "f32"
    a = args[0]
    if op in ("mov", "cvt"):
        return a
    if op == "div":
        q = _safe_div(a, args[1])
        return q if is_float else np.trunc(q).astype(I)
    if op == "rem":
        q = np.trunc(_safe_div(a, args[1]))
        return a - q * args[1] if is_float else a - q.astype(I) * args[1]
    return {
        "add": lambda: a + args[1],
        "sub": lambda: a - args[1],
        "mul": lambda: a * args[1],
        "mad": lambda: a * args[1] + args[2],
        "min": lambda: np.minimum(a, args[1]),
        "max": lambda: np.maximum(a, args[1]),
        "abs": lambda: abs(a),
        "neg": lambda: -a,
        "and": lambda: a & args[1],
        "or": lambda: a | args[1],
        "xor": lambda: a ^ args[1],
        "not": lambda: ~a,
        "shl": lambda: a << _shift_count(args[1]),
        "shr": lambda: a >> _shift_count(args[1]),
        "rcp": lambda: _safe_div(F(1.0), a),
        "sqrt": lambda: np.sqrt(np.maximum(a, F(0.0))),
        "ex2": lambda: np.exp2(np.clip(a, -1000, 1000)),
        "lg2": lambda: np.log2(a if a > 0 else F(1.0)),
        "sin": lambda: np.sin(a),
        "cos": lambda: np.cos(a),
    }[op]()


class _Warp:
    """Naive state of one warp: per-lane scalars plus each register's
    warp-wide storage dtype."""

    def __init__(self, tb_index, warp_id):
        threads = BLOCK[0] * BLOCK[1]
        self.live = min(WARP, threads - warp_id * WARP)
        bx, by = BLOCK
        cx, cy = tb_index % GRID[0], tb_index // GRID[0]
        self.lanes = []
        for lane in range(self.live):
            t = warp_id * WARP + lane
            self.lanes.append({
                "tid.x": t % bx, "tid.y": (t // bx) % by, "laneid": lane,
                "warpid": warp_id, "ctaid.x": cx, "ctaid.y": cy,
                "ntid.x": bx, "ntid.y": by, "nctaid.x": GRID[0], "smem_base": 0,
            })
        self.regs = {}   # name -> (dtype, [lane scalars])
        self.preds = {}  # name -> [lane bools]

    def reg(self, name):
        return self.regs.get(name, (np.dtype(I), [I(0)] * self.live))

    def pred(self, name):
        return self.preds.get(name, [False] * self.live)

    def raw(self, token, lane):
        if token.startswith("$p"):
            return np.bool_(self.pred(token[1:])[lane])
        if token.startswith("$"):
            return self.reg(token[1:])[1][lane]
        if token.startswith("%param."):
            value = PARAMS[token[len("%param."):]]
            return F(value) if isinstance(value, float) else I(value)
        if token.startswith("%"):
            return I(self.lanes[lane][token[1:]])
        if token in FLOAT_IMMEDIATES:
            return F(float(token))
        return I(int(token, 0))

    def enabled(self, guard):
        if not guard:
            return [True] * self.live
        negated = guard.startswith("@!")
        values = self.pred(guard.strip("@! $"))
        return [v != negated for v in values]

    def write(self, name, values, enabled):
        dtype = np.asarray(values[0]).dtype
        if self.live == WARP and all(enabled):
            self.regs[name] = (dtype, list(values))
            return
        old_dtype, old = self.reg(name)
        if old_dtype != dtype:
            dtype = np.dtype(F)
        merged = [new if on else prev for new, prev, on in zip(values, old, enabled)]
        self.regs[name] = (dtype, [dtype.type(v) for v in merged])

    def write_pred(self, name, values, enabled):
        old = self.pred(name)
        self.preds[name] = [bool(v) if on else p for v, p, on in zip(values, old, enabled)]

    def step(self, line):
        guard, op, cmp, dtype, dst, srcs = line
        enabled = self.enabled(guard)
        lanes = range(self.live)
        if op == "selp":
            cast = _CASTS[dtype, "typed"]
            values = [
                cast(self.raw(srcs[0], n)) if bool(self.raw(srcs[2], n))
                else cast(self.raw(srcs[1], n))
                for n in lanes
            ]
            self.write(dst[1:], values, enabled)
        elif op == "setp":
            cast = _CASTS[dtype, "typed"]
            compare = getattr(operator, cmp)
            values = [
                compare(cast(self.raw(srcs[0], n)), cast(self.raw(srcs[1], n))) for n in lanes
            ]
            self.write_pred(dst[1:], values, enabled)
        else:
            kind = "int" if op in _BITWISE else "float" if op in _SFU else "typed"
            cast = _CASTS[dtype, kind]
            values = [
                _lane_op(op, dtype, [cast(self.raw(s, n)) for s in srcs]) for n in lanes
            ]
            self.write(dst[1:], values, enabled)


def _naive_run(prog_lines):
    warps = {}
    with np.errstate(all="ignore"):
        for tb_index in range(GRID[0] * GRID[1]):
            for warp_id in range(-(-BLOCK[0] * BLOCK[1] // WARP)):
                warp = _Warp(tb_index, warp_id)
                for line in prog_lines:
                    warp.step(line)
                warps[tb_index, warp_id] = warp
    return warps


# -- running the engine and comparing ---------------------------------------------


def _text(line):
    guard, op, cmp, dtype, dst, srcs = line
    mnemonic = f"{op}.{cmp}.{dtype}" if cmp else f"{op}.{dtype}"
    return f"{guard}{mnemonic} {', '.join([dst] + list(srcs))}"


def _engine_run(prog_lines):
    prog = assemble("\n".join([".param k", ".param f"] + [_text(l) for l in prog_lines] + ["exit"]))
    launch = LaunchConfig(grid_dim=Dim3(*GRID), block_dim=Dim3(*BLOCK), warp_size=WARP)
    ctx = ExecutionContext(
        program=prog, launch=launch, memory=GlobalMemory(64), params=KernelParams(PARAMS)
    )
    engine = FunctionalEngine(ctx)
    warps = {}
    with np.errstate(all="ignore"):
        for tb_index in range(launch.num_blocks):
            tb = ThreadBlockState(ctx, tb_index)
            for warp in tb.warps:
                while not warp.exited:
                    engine.execute_instruction(tb, warp, prog.at(warp.pc))
                warps[tb_index, warp.warp_id] = warp.registers
    return warps


def _assert_agree(prog_lines):
    expected = _naive_run(prog_lines)
    for key, regs in _engine_run(prog_lines).items():
        naive = expected[key]
        live = naive.live
        for name in REGS:
            got = regs.read(name)
            dtype, lanes = naive.reg(name)
            want = np.array(lanes, dtype=dtype)
            where = f"${name} of (tb, warp) {key}"
            assert got.dtype == dtype, f"{where}: dtype {got.dtype} != {dtype}"
            assert got[:live].tobytes() == want.tobytes(), f"{where}: {got[:live]} != {want}"
        for name in PREDS:
            got = regs.read_pred(name)[:live].tolist()
            assert got == naive.pred(name), f"${name} of (tb, warp) {key}"


# -- strategies ---------------------------------------------------------------


def _alu_line(draw):
    op = draw(st.sampled_from(ALU_OPS))
    srcs = draw(st.lists(st.sampled_from(SOURCES), min_size=source_arity(Opcode(op)),
                         max_size=source_arity(Opcode(op))))
    return (draw(st.sampled_from(GUARDS)), op, None, draw(st.sampled_from(DTYPES)),
            "$" + draw(st.sampled_from(REGS)), tuple(srcs))


def _setp_line(draw):
    srcs = (draw(st.sampled_from(SOURCES)), draw(st.sampled_from(SOURCES)))
    return (draw(st.sampled_from(GUARDS)), "setp", draw(st.sampled_from(CMPS)),
            draw(st.sampled_from(DTYPES)), "$" + draw(st.sampled_from(PREDS)), srcs)


def _selp_line(draw):
    srcs = (draw(st.sampled_from(SOURCES)), draw(st.sampled_from(SOURCES)),
            draw(st.sampled_from(["$p0", "$p1", "$r0", "$r1"])))
    return (draw(st.sampled_from(GUARDS)), "selp", None, draw(st.sampled_from(DTYPES)),
            "$" + draw(st.sampled_from(REGS)), srcs)


@st.composite
def program_lines(draw):
    kinds = st.sampled_from([_alu_line, _alu_line, _alu_line, _setp_line, _selp_line])
    n = draw(st.integers(min_value=1, max_value=20))
    return [draw(kinds)(draw) for _ in range(n)]


@given(program_lines())
@settings(max_examples=150, deadline=None)
def test_engine_matches_naive_interpreter(prog_lines):
    _assert_agree(prog_lines)


def test_every_opcode_and_comparison_agrees():
    """A fixed program touching every opcode, dtype, comparison and guard
    form, so coverage never depends on what the random search drew."""
    lines = []
    for i, cmp in enumerate(CMPS):
        dtype = DTYPES[i % 2]
        lines.append(("", "setp", cmp, dtype, f"$p{i % 2}", ("%tid.x", "%tid.y")))
        lines.append((GUARDS[1 + i % 4], "selp", None, dtype, f"$r{i % 4}",
                      ("%laneid", "%param.f", f"$p{i % 2}")))
    for i, op in enumerate(ALU_OPS):
        for dtype in DTYPES:
            srcs = ("$r0", "%tid.x", "-0.0", "%param.k", "0", "70")[i % 3:][:source_arity(Opcode(op))]
            lines.append((GUARDS[i % len(GUARDS)], op, None, dtype, f"$r{i % 4}", srcs))
    lines += [
        ("", "shl", None, "s32", "$r1", ("%warpid", "64")),
        ("", "shr", None, "s32", "$r2", ("-7", "-1")),
        ("", "div", None, "s32", "$r3", ("%ctaid.x", "0")),
        ("", "rem", None, "f32", "$r0", ("%ntid.x", "$r3")),
        # Bitwise .f32 operands round through float64 first (this int
        # needs 62 bits); integer SFU operands truncate first.
        ("", "mul", None, "s32", "$r3", ("0x7fffffff", "0x7fffffff")),
        ("", "and", None, "f32", "$r2", ("$r3", "-1")),
        ("", "mov", None, "f32", "$r1", ("-2.25",)),
        ("", "ex2", None, "s32", "$r0", ("$r1",)),
    ]
    _assert_agree(lines)
