"""Functional SIMT executor.

Executes assembled kernels warp-by-warp with full architectural
semantics: 32-lane vector operations, predication, SIMT-stack divergence,
shared/global memory and TB-wide barriers.

Two consumers share this engine:

- :func:`run_functional` — a standalone functional simulation used by the
  redundancy limit studies (Figures 1 and 2) and as the correctness
  oracle that DARSIE-enabled timing runs are checked against;
- :mod:`repro.timing` — the cycle-level model calls
  :meth:`FunctionalEngine.execute_instruction` at the issue stage, so
  timing and functional behaviour can never diverge.

Each engine decodes a static instruction once, on its first execution,
into a *micro-op*: one callable with everything the instruction fixes
already bound — its operand readers (constants become shared read-only
vectors), dtype casts, numpy operation, destination and memory space.
Every later execution of that instruction is a single call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.isa.instructions import CmpOp, INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.operands import Immediate, MemSpace, Param, Predicate, Register, Special
from repro.isa.program import Program
from repro.simt.grid import Dim3, LaunchConfig, WarpLayout
from repro.simt.memory import GlobalMemory, KernelParams, SharedMemory
from repro.simt.register_file import WarpRegisterFile
from repro.simt.tracer import Tracer
from repro.simt.warp import WarpState


class ExecutionError(RuntimeError):
    """Raised on a semantic error during kernel execution."""


@dataclass
class ExecutionContext:
    """Everything a kernel launch needs besides per-TB state."""

    program: Program
    launch: LaunchConfig
    memory: GlobalMemory
    params: KernelParams
    layout: WarpLayout = field(init=False)

    def __post_init__(self) -> None:
        self.params.validate_against(self.program.params)
        self.layout = WarpLayout(self.launch)


class ThreadBlockState:
    """Runtime state of one threadblock resident on an SM."""

    def __init__(self, ctx: ExecutionContext, tb_index: int):
        self.ctx = ctx
        self.tb_index = tb_index
        self.block_idx: Dim3 = ctx.launch.block_index(tb_index)
        shared_words = max(ctx.program.shared_words, 1)
        self.shared = SharedMemory(shared_words)
        self.warps: List[WarpState] = [
            WarpState.create(w, tb_index, ctx.layout.active_mask(w))
            for w in range(ctx.launch.warps_per_block)
        ]
        #: ``ctaid.<axis>`` -> read-only warp-wide vector, built on first read
        self._ctaid: Dict[str, np.ndarray] = {}

    def ctaid(self, axis: str) -> np.ndarray:
        """The shared read-only ``ctaid.<axis>`` vector of this TB."""
        value = self._ctaid.get(axis)
        if value is None:
            n = self.ctx.launch.warp_size
            value = _shared(np.full(n, getattr(self.block_idx, axis), dtype=_INT))
            self._ctaid[axis] = value
        return value

    @property
    def done(self) -> bool:
        return all(w.exited for w in self.warps)

    def live_warps(self) -> List[WarpState]:
        return [w for w in self.warps if not w.exited]

    def release_barrier_if_ready(self) -> bool:
        """Release all warps when every live warp has reached ``bar.sync``."""
        live = self.live_warps()
        if live and all(w.at_barrier for w in live):
            for w in live:
                w.at_barrier = False
            return True
        return False


class StepResult:
    """Outcome of executing one warp instruction.

    Hand-written ``__slots__`` (no ``dataclass(slots=True)``: Python 3.9
    has none): one is built per executed instruction.
    """

    __slots__ = (
        "inst", "warp", "exec_mask", "dest_value", "branch_taken_mask",
        "mem_addresses", "retired", "hit_barrier",
    )

    def __init__(
        self,
        inst: Instruction,
        warp: WarpState,
        exec_mask: np.ndarray,
        dest_value: Optional[np.ndarray] = None,
        branch_taken_mask: Optional[np.ndarray] = None,
        mem_addresses: Optional[np.ndarray] = None,
        retired: bool = False,
        hit_barrier: bool = False,
    ) -> None:
        self.inst = inst
        self.warp = warp
        self.exec_mask = exec_mask
        self.dest_value = dest_value
        self.branch_taken_mask = branch_taken_mask
        #: the accessed byte address per lane, 0 on inactive lanes
        self.mem_addresses = mem_addresses
        self.retired = retired
        self.hit_barrier = hit_barrier


_INT = np.int64
_FLOAT = np.float64

Overrides = Mapping[str, np.ndarray]
#: Reads one operand: ``reader(tb, warp, reg_overrides, pred_overrides)``.
Reader = Callable[[ThreadBlockState, WarpState, Overrides, Overrides], np.ndarray]
#: One decoded instruction:
#: ``micro_op(engine, tb, warp, reg_overrides, pred_overrides) -> StepResult``.
MicroOp = Callable[
    ["FunctionalEngine", ThreadBlockState, WarpState, Overrides, Overrides], StepResult
]

#: Stands in for absent overrides; never written.
_NO_OVERRIDES: Dict[str, np.ndarray] = {}


def _to_int(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.kind == "f":
        return np.trunc(arr).astype(_INT)
    return arr.astype(_INT, copy=False)


def _to_float(arr: np.ndarray) -> np.ndarray:
    return arr.astype(_FLOAT, copy=False)


def _raw(arr: np.ndarray) -> np.ndarray:
    return arr


def _trunc_float(arr: np.ndarray) -> np.ndarray:
    """Integer operands of a ``.f32`` bitwise op: cast to float, then truncate."""
    return _to_int(_to_float(arr))


def _float_int(arr: np.ndarray) -> np.ndarray:
    """Float operands of an integer SFU op: cast to int, then to float."""
    return _to_float(_to_int(arr))


#: Cast -> the dtype it returns unchanged (lets register reads skip the call).
_CAST_KEEPS = {_to_int: np.dtype(_INT), _to_float: np.dtype(_FLOAT)}


def _shared(arr: np.ndarray) -> np.ndarray:
    """Mark a vector that many reads share as read-only."""
    arr.flags.writeable = False
    return arr


# -- decode: operand readers ----------------------------------------------


def _register_reader(name: str, cast: Callable) -> Reader:
    keep = _CAST_KEEPS.get(cast)

    def read(tb, warp, regs, preds):
        value = regs.get(name)
        if value is None:
            value = warp.registers.read(name)
        return value if value.dtype is keep else cast(value)

    return read


def _predicate_reader(name: str, cast: Callable) -> Reader:
    def read(tb, warp, regs, preds):
        value = preds.get(name)
        if value is None:
            value = warp.registers.read_pred(name)
        return cast(value)

    return read


def _constant_reader(value: np.ndarray) -> Reader:
    def read(tb, warp, regs, preds):
        return value

    return read


def _per_warp_reader(rows: Tuple[np.ndarray, ...]) -> Reader:
    def read(tb, warp, regs, preds):
        return rows[warp.warp_id]

    return read


def _ctaid_reader(axis: str, cast: Callable) -> Reader:
    keep = _CAST_KEEPS.get(cast)

    def read(tb, warp, regs, preds):
        value = tb.ctaid(axis)
        return value if value.dtype is keep else cast(value)

    return read


def _reader(operand, ctx: ExecutionContext, cast: Callable) -> Reader:
    """Bind the read of ``operand``, cast with ``cast``, for one engine."""
    if isinstance(operand, Register):
        return _register_reader(operand.name, cast)
    if isinstance(operand, Predicate):
        return _predicate_reader(operand.name, cast)
    launch = ctx.launch
    n = launch.warp_size

    def constant(value, dtype=_INT) -> Reader:
        return _constant_reader(_shared(cast(np.full(n, value, dtype=dtype))))

    if isinstance(operand, Immediate):
        return constant(operand.value, _FLOAT if operand.is_float else _INT)
    if isinstance(operand, Param):
        value = ctx.params[operand.name]
        return constant(value, _FLOAT if isinstance(value, float) else _INT)
    if not isinstance(operand, Special):
        raise ExecutionError(f"cannot evaluate operand {operand!r}")
    name = operand.name
    axis = name[-1]
    warps = range(launch.warps_per_block)
    if name.startswith("tid."):
        return _per_warp_reader(tuple(_shared(cast(ctx.layout.tid(w, axis))) for w in warps))
    if name == "warpid":
        return _per_warp_reader(tuple(_shared(cast(np.full(n, w, dtype=_INT))) for w in warps))
    if name.startswith("ctaid."):
        return _ctaid_reader(axis, cast)
    if name.startswith("ntid."):
        return constant(getattr(launch.block_dim, axis))
    if name.startswith("nctaid."):
        return constant(getattr(launch.grid_dim, axis))
    if name == "laneid":
        return _constant_reader(_shared(cast(np.arange(n, dtype=_INT))))
    if name == "smem_base":
        return constant(0)
    raise ExecutionError(f"unhandled special %{name}")


def _guard_reader(inst: Instruction) -> Optional[Callable]:
    """``guard(warp, pred_overrides)`` -> the lanes predication keeps."""
    if inst.guard is None:
        return None
    name = inst.guard.name
    negated = inst.guard_negated

    def guard(warp, preds):
        value = preds.get(name)
        if value is None:
            value = warp.registers.read_pred(name)
        return ~value if negated else value

    return guard


def _address_reader(inst: Instruction, ctx: ExecutionContext) -> Reader:
    mem = inst.mem
    base = _reader(mem.base, ctx, _to_int)
    index = _reader(mem.index, ctx, _to_int) if mem.index is not None else None
    offset = mem.offset
    if index is None and not offset:
        return base
    if index is None:
        def address(tb, warp, regs, preds):
            return base(tb, warp, regs, preds) + offset
    else:
        def address(tb, warp, regs, preds):
            addr = base(tb, warp, regs, preds) + index(tb, warp, regs, preds)
            return addr + offset if offset else addr
    return address


# -- decode: ALU / SFU operations ---------------------------------------------


def _safe_div(a: np.ndarray, b: np.ndarray, is_float: bool) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(b != 0, _to_float(a) / np.where(b != 0, _to_float(b), 1.0), 0.0)
    if is_float:
        return out
    return np.trunc(out).astype(_INT)


def _rem(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-style remainder: ``a - trunc(a/b)*b`` (also for floats)."""
    quot = np.trunc(_safe_div(a, b, True))
    if a.dtype.kind == "f":
        return a - quot * b
    return a - quot.astype(_INT) * b


#: How an ALU opcode's operands are cast, given the instruction's dtype:
#: ``typed`` follows the dtype, ``int`` truncates even for ``.f32`` and
#: ``float`` widens even for integer types.
_TYPED, _AS_INT, _AS_FLOAT = "typed", "int", "float"
_OPERAND_CAST = {
    (_TYPED, False): _to_int,
    (_TYPED, True): _to_float,
    (_AS_INT, False): _to_int,
    (_AS_INT, True): _trunc_float,
    (_AS_FLOAT, False): _float_int,
    (_AS_FLOAT, True): _to_float,
}

#: ``opcode -> (operand cast, vector function)``.
_ALU: Dict[Opcode, Tuple[str, Callable]] = {
    Opcode.MOV: (_TYPED, np.ndarray.copy),
    Opcode.CVT: (_TYPED, np.ndarray.copy),
    Opcode.ADD: (_TYPED, np.add),
    Opcode.SUB: (_TYPED, np.subtract),
    Opcode.MUL: (_TYPED, np.multiply),
    Opcode.MAD: (_TYPED, lambda a, b, c: a * b + c),
    Opcode.MIN: (_TYPED, np.minimum),
    Opcode.MAX: (_TYPED, np.maximum),
    Opcode.ABS: (_TYPED, np.abs),
    Opcode.NEG: (_TYPED, np.negative),
    Opcode.AND: (_AS_INT, np.bitwise_and),
    Opcode.OR: (_AS_INT, np.bitwise_or),
    Opcode.XOR: (_AS_INT, np.bitwise_xor),
    Opcode.NOT: (_AS_INT, np.invert),
    # min/max ufuncs, not np.clip: with Python-scalar bounds np.clip
    # builds two np.iinfo objects per call (about 3x slower per vector).
    Opcode.SHL: (_AS_INT, lambda a, b: a << np.minimum(np.maximum(b, 0), 63)),
    Opcode.SHR: (_AS_INT, lambda a, b: a >> np.minimum(np.maximum(b, 0), 63)),
    # ``typed`` operands are float64 exactly when the dtype is float.
    Opcode.DIV: (_TYPED, lambda a, b: _safe_div(a, b, a.dtype.kind == "f")),
    Opcode.REM: (_TYPED, _rem),
    Opcode.RCP: (_AS_FLOAT, lambda a: _safe_div(np.ones_like(a), a, True)),
    Opcode.SQRT: (_AS_FLOAT, lambda a: np.sqrt(np.maximum(a, 0.0))),
    Opcode.EX2: (_AS_FLOAT, lambda a: np.exp2(np.minimum(np.maximum(a, -1000.0), 1000.0))),
    Opcode.LG2: (_AS_FLOAT, lambda a: np.log2(np.where(a > 0, a, 1.0))),
    Opcode.SIN: (_AS_FLOAT, np.sin),
    Opcode.COS: (_AS_FLOAT, np.cos),
}

_COMPARE = {
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
}


def _compute(fn: Callable, readers: List[Reader]) -> Reader:
    """``fn`` applied to the operands ``readers`` produce, in source order."""
    if len(readers) == 1:
        (a,) = readers

        def compute(tb, warp, regs, preds):
            return fn(a(tb, warp, regs, preds))
    elif len(readers) == 2:
        a, b = readers

        def compute(tb, warp, regs, preds):
            return fn(a(tb, warp, regs, preds), b(tb, warp, regs, preds))
    elif len(readers) == 3:
        a, b, c = readers

        def compute(tb, warp, regs, preds):
            return fn(a(tb, warp, regs, preds), b(tb, warp, regs, preds), c(tb, warp, regs, preds))
    else:
        raise ExecutionError(f"no {len(readers)}-operand form")
    return compute


def _select(inst: Instruction, ctx: ExecutionContext, cast: Callable) -> Reader:
    a = _reader(inst.srcs[0], ctx, cast)
    b = _reader(inst.srcs[1], ctx, cast)
    p = _reader(inst.srcs[2], ctx, _raw)

    def select(tb, warp, regs, preds):
        x = a(tb, warp, regs, preds)
        y = b(tb, warp, regs, preds)
        return np.where(p(tb, warp, regs, preds).astype(bool), x, y)

    return select


def _value_compute(inst: Instruction, ctx: ExecutionContext) -> Reader:
    """The vector an ALU, SFU or ``setp`` instruction produces."""
    op = inst.opcode
    is_float = inst.dtype.is_float
    if op is Opcode.SELP:
        return _select(inst, ctx, _OPERAND_CAST[_TYPED, is_float])
    if op is Opcode.SETP:
        if inst.cmp not in _COMPARE:
            raise ExecutionError(f"setp without a comparison: {inst}")
        kind, fn = _TYPED, _COMPARE[inst.cmp]
    elif op in _ALU:
        kind, fn = _ALU[op]
    else:
        raise ExecutionError(f"unimplemented opcode {op}")
    cast = _OPERAND_CAST[kind, is_float]
    return _compute(fn, [_reader(s, ctx, cast) for s in inst.srcs])


# -- decode: micro-ops --------------------------------------------------------


def _exec_mask(warp: WarpState, guard: Optional[Callable], preds: Overrides):
    """``(exec_mask, full)``: the lanes an instruction runs on, and whether
    that is every lane of the warp."""
    top = warp.stack[-1]
    if guard is None:
        return top.active_mask, top.full
    mask = top.active_mask & guard(warp, preds)
    return mask, np.count_nonzero(mask) == mask.size


def _advance(warp: WarpState) -> None:
    stack = warp.stack
    stack[-1].pc += INSTRUCTION_BYTES
    if len(stack) > 1:
        warp.maybe_reconverge()


def _space_is_global(inst: Instruction) -> bool:
    space = inst.mem.space
    if space is not MemSpace.GLOBAL and space is not MemSpace.SHARED:
        raise ExecutionError(f"cannot load/store space {space}")
    return space is MemSpace.GLOBAL


def _decode_value(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    guard = _guard_reader(inst)
    compute = _value_compute(inst, ctx)
    if inst.opcode is Opcode.SETP:
        dest, commit = inst.dest_predicate().name, WarpRegisterFile.commit_pred
    else:
        dest, commit = inst.dest_register().name, WarpRegisterFile.commit

    def alu(engine, tb, warp, regs, preds):
        exec_mask, full = _exec_mask(warp, guard, preds)
        value = compute(tb, warp, regs, preds)
        commit(warp.registers, dest, value, exec_mask, full)
        _advance(warp)
        return StepResult(inst, warp, exec_mask, value)

    return alu


def _decode_load(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    guard = _guard_reader(inst)
    is_global = _space_is_global(inst)
    address = _address_reader(inst, ctx)
    as_float = inst.dtype.is_float
    dest = inst.dest_register().name

    def load(engine, tb, warp, regs, preds):
        exec_mask, full = _exec_mask(warp, guard, preds)
        space = engine.ctx.memory if is_global else tb.shared
        addresses = address(tb, warp, regs, preds)
        if not full:
            addresses = np.where(exec_mask, addresses, 0)
        value = space.load(addresses, as_float=as_float)
        warp.registers.commit(dest, value, exec_mask, full)
        _advance(warp)
        return StepResult(inst, warp, exec_mask, value, mem_addresses=addresses)

    return load


def _decode_store(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    guard = _guard_reader(inst)
    is_global = _space_is_global(inst)
    address = _address_reader(inst, ctx)
    data = _reader(inst.srcs[0], ctx, _to_float if inst.dtype.is_float else _to_int)

    def store(engine, tb, warp, regs, preds):
        exec_mask, full = _exec_mask(warp, guard, preds)
        space = engine.ctx.memory if is_global else tb.shared
        addr = address(tb, warp, regs, preds)
        addresses = addr if full else np.where(exec_mask, addr, 0)
        values = data(tb, warp, regs, preds)
        if full:
            space.store(addr, values)
        elif exec_mask.any():
            space.store(addr[exec_mask], values[exec_mask])
        _advance(warp)
        return StepResult(inst, warp, exec_mask, mem_addresses=addresses)

    return store


def _decode_atomic(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    guard = _guard_reader(inst)
    is_global = _space_is_global(inst)
    address = _address_reader(inst, ctx)
    operand = _reader(inst.srcs[0], ctx, _raw)
    as_float = inst.dtype.is_float
    dest = inst.dest_register().name
    n = ctx.launch.warp_size

    def atomic(engine, tb, warp, regs, preds):
        exec_mask, full = _exec_mask(warp, guard, preds)
        if is_global:
            engine.global_communication_seen = True
        space = engine.ctx.memory if is_global else tb.shared
        addr = address(tb, warp, regs, preds)
        addresses = addr if full else np.where(exec_mask, addr, 0)
        add = operand(tb, warp, regs, preds)
        old = np.zeros(n, dtype=_FLOAT)
        for lane in np.flatnonzero(exec_mask):
            a = np.asarray([addr[lane]])
            old[lane] = space.load(a, as_float=True)[0]
            space.store(a, np.asarray([old[lane] + float(add[lane])]))
        value = old if as_float else old.astype(_INT)
        warp.registers.commit(dest, value, exec_mask, full)
        _advance(warp)
        return StepResult(inst, warp, exec_mask, value, mem_addresses=addresses)

    return atomic


def _decode_branch(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    guard = _guard_reader(inst)
    pc = inst.pc
    fallthrough = pc + INSTRUCTION_BYTES
    target = inst.target_pc
    assert target is not None

    def branch(engine, tb, warp, regs, preds):
        taken, full = _exec_mask(warp, guard, preds)
        result = StepResult(inst, warp, taken, branch_taken_mask=taken.copy())
        top = warp.stack[-1]
        if full:
            top.pc = target
        elif not taken.any():
            top.pc = fallthrough
        elif taken is top.active_mask or np.array_equal(taken, top.active_mask):
            top.pc = target
        else:
            rpc = engine.ctx.program.reconvergence_pc(pc)
            warp.diverge(taken, fallthrough, target, rpc)
        warp.maybe_reconverge()
        return result

    return branch


def _decode_exit(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    guard = _guard_reader(inst)

    def exit_(engine, tb, warp, regs, preds):
        result = StepResult(inst, warp, _exec_mask(warp, guard, preds)[0])
        if len(warp.stack) > 1:
            # Divergent lanes finished; resume the other paths.
            warp.stack.pop()
        else:
            warp.retire()
            result.retired = True
        return result

    return exit_


def _decode_nop(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    """``nop``, and ``bar.sync``, which also parks the warp at the barrier."""
    guard = _guard_reader(inst)
    barrier = inst.is_barrier

    def nop(engine, tb, warp, regs, preds):
        result = StepResult(inst, warp, _exec_mask(warp, guard, preds)[0], hit_barrier=barrier)
        if barrier:
            warp.at_barrier = True
        _advance(warp)
        return result

    return nop


_DECODERS: Dict[Opcode, Callable[[Instruction, ExecutionContext], MicroOp]] = {
    Opcode.LD: _decode_load,
    Opcode.ST: _decode_store,
    Opcode.ATOM: _decode_atomic,
    Opcode.BRA: _decode_branch,
    Opcode.EXIT: _decode_exit,
    Opcode.BAR: _decode_nop,
    Opcode.NOP: _decode_nop,
}


def _decode(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    """Decode ``inst`` into a micro-op for engines running ``ctx``.

    The micro-op takes the engine as its first argument instead of
    closing over it, so an engine's decode table never forms a reference
    cycle with the engine (and its global memory) and is freed with it.
    """
    return _DECODERS.get(inst.opcode, _decode_value)(inst, ctx)


class FunctionalEngine:
    """Executes instructions with architectural semantics."""

    def __init__(self, ctx: ExecutionContext, tracer: Optional[Tracer] = None):
        self.ctx = ctx
        self.tracer = tracer
        self.instructions_executed = 0
        #: true once any global atomic has run (DARSIE's global
        #: communication event, Section 4.4).
        self.global_communication_seen = False
        #: ``id(inst) -> (inst, micro-op)``; holding ``inst`` keeps its id
        #: from being reused while the entry lives.
        self._decoded: Dict[int, Tuple[Instruction, MicroOp]] = {}

    def execute_instruction(
        self,
        tb: ThreadBlockState,
        warp: WarpState,
        inst: Instruction,
        reg_overrides: Optional[Dict[str, np.ndarray]] = None,
        pred_overrides: Optional[Dict[str, np.ndarray]] = None,
    ) -> StepResult:
        """Execute ``inst`` for ``warp`` and advance its PC.

        The caller is responsible for only invoking this at the warp's
        current PC (the timing model guarantees it by issuing in order).
        ``reg_overrides`` / ``pred_overrides`` substitute source values
        for renamed registers (DARSIE follower reads).
        """
        if warp.exited:
            raise ExecutionError("executing on an exited warp")
        entry = self._decoded.get(id(inst))
        if entry is None:
            entry = self._decoded[id(inst)] = (inst, _decode(inst, self.ctx))
        self.instructions_executed += 1
        result = entry[1](
            self, tb, warp, reg_overrides or _NO_OVERRIDES, pred_overrides or _NO_OVERRIDES
        )
        if self.tracer is not None:
            self.tracer.record(tb, warp, result)
        return result


def run_functional(
    program: Program,
    launch: LaunchConfig,
    memory: GlobalMemory,
    params: Optional[Dict] = None,
    tracer: Optional[Tracer] = None,
    max_steps: int = 50_000_000,
) -> FunctionalEngine:
    """Run a kernel to completion functionally.

    Threadblocks execute one after another; within a TB, live warps are
    stepped round-robin one instruction at a time, which approximates the
    lock-step progression DARSIE's static analysis assumes (Section 4.2)
    and aligns dynamic instruction streams for the limit studies.

    Returns the engine (for executed-instruction counts and the
    global-communication flag).
    """
    ctx = ExecutionContext(
        program=program,
        launch=launch,
        memory=memory,
        params=KernelParams(params or {}),
    )
    engine = FunctionalEngine(ctx, tracer=tracer)
    steps = 0
    for tb_index in range(launch.num_blocks):
        tb = ThreadBlockState(ctx, tb_index)
        if tracer is not None:
            tracer.begin_block(tb)
        while not tb.done:
            progressed = False
            for warp in tb.warps:
                if warp.exited or warp.at_barrier:
                    continue
                inst = program.at(warp.pc)
                engine.execute_instruction(tb, warp, inst)
                progressed = True
                steps += 1
                if steps > max_steps:
                    raise ExecutionError(f"exceeded {max_steps} steps; runaway kernel?")
            if not progressed and not tb.done:
                released = tb.release_barrier_if_ready()
                if not released:
                    raise ExecutionError("deadlock: no runnable warps and barrier not ready")
            else:
                tb.release_barrier_if_ready()
    return engine
