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

:func:`run_functional` also runs a threadblock's *lock-stepped* rounds
(every runnable warp at one PC with a one-level SIMT stack) as one
*group micro-op* over a ``[warps, lanes]`` block: every instruction but
``atom``, whose read-modify-writes across warps happen in an observable
order.  Group micro-ops are decoded from the same operand readers,
casts and operation tables as the per-warp ones, and every other round
keeps the per-warp micro-op.  The timing model issues one warp at a
time, so only the functional runner ever groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.isa.instructions import CONTROL_OPS, CmpOp, INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.operands import Immediate, MemSpace, Param, Predicate, Register, Special
from repro.isa.program import Program
from repro.simt.grid import Dim3, LaunchConfig, WarpLayout
from repro.simt.memory import GlobalMemory, KernelParams, MemoryError_, SharedMemory
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
        #: ``(is a predicate, name) -> (block, rows)``: the last block a
        #: group micro-op wrote in full, and the row views it stored
        self._blocks: Dict[Tuple[bool, str], Tuple[np.ndarray, List[np.ndarray]]] = {}

    def block(self, name: str, predicate: bool, group: "WarpGroup") -> np.ndarray:
        """Register (or predicate) ``name`` of ``group`` as one
        ``[warps, lanes]`` block.

        The block a group micro-op kept is the answer as long as every
        warp still holds its row of it: register vectors are never
        mutated in place, only rebound, so an unchanged row object has
        unchanged values.  Otherwise the rows are stacked.
        """
        read = WarpRegisterFile.read_pred if predicate else WarpRegisterFile.read
        rows = [read(rf, name) for rf in group.files]
        kept = self._blocks.get((predicate, name))
        if kept is not None and len(kept[1]) == len(rows) and all(map(is_, rows, kept[1])):
            return kept[0]
        dtype = rows[0].dtype
        for row in rows:
            if row.dtype != dtype:
                # Stacking would promote: run the warps one at a time instead.
                raise _MixedDtypes(dtype, row.dtype)
        return np.array(rows)

    def keep_block(self, name: str, predicate: bool, block: np.ndarray, rows: List[np.ndarray]):
        """Remember that a group micro-op stored ``rows``, the rows of
        ``block``, as the warps' whole ``name``."""
        self._blocks[predicate, name] = (block, rows)

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


class WarpGroup:
    """Warps of one threadblock in lock step: each at one PC with a
    one-level SIMT stack, in TB order.

    Holds what a group micro-op needs of its warps and what stays fixed
    while they run straight-line code together: their stack entries and
    register files, whether each active mask holds every lane, and the
    active masks as one block (None when every one is full).  A control
    instruction may change any of it, so a group lives until one runs.
    """

    __slots__ = ("warps", "tops", "files", "fulls", "active")

    def __init__(self, warps: Sequence[WarpState]) -> None:
        self.warps = list(warps)
        self.tops = [w.stack[0] for w in self.warps]
        self.files = [w.registers for w in self.warps]
        self.fulls = [t.full for t in self.tops]
        self.active = None if all(self.fulls) else np.array([t.active_mask for t in self.tops])

    def __len__(self) -> int:
        return len(self.warps)


class _MixedDtypes(Exception):
    """The warps of a group hold one register in different dtypes."""


class StepResult:
    """Outcome of executing one warp instruction.

    Hand-written ``__slots__`` (no ``dataclass(slots=True)``: Python 3.9
    has none): one is built per executed instruction.
    """

    __slots__ = ("inst", "exec_mask", "dest_value", "mem_addresses", "retired")

    def __init__(
        self,
        inst: Instruction,
        exec_mask: np.ndarray,
        dest_value: Optional[np.ndarray] = None,
        mem_addresses: Optional[np.ndarray] = None,
        retired: bool = False,
    ) -> None:
        self.inst = inst
        self.exec_mask = exec_mask
        self.dest_value = dest_value
        #: the accessed byte address per lane, 0 on inactive lanes
        self.mem_addresses = mem_addresses
        self.retired = retired


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

#: One decoded instruction for a group of lock-stepped warps:
#: ``group_op(engine, tb, group) -> (values, exec_masks)``.
GroupOp = Callable[
    ["FunctionalEngine", ThreadBlockState, WarpGroup],
    Tuple[Optional[np.ndarray], Optional[np.ndarray]],
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
        # Straight from the file's dict; ``read`` only for a register
        # never written (it stores the zeros it returns).
        value = regs.get(name) if regs else None
        if value is None:
            value = warp.registers._regs.get(name)
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


# A group reader takes the same arguments as a per-warp one, with a
# :class:`WarpGroup` in the warp's place and no overrides, and returns a
# ``[warps, lanes]`` block.  Operands that are the same vector for every
# warp (constants, ``ctaid``) keep their per-warp reader: the vector
# broadcasts against the blocks.


def _block_reader(name: str, predicate: bool, cast: Callable) -> Reader:
    keep = _CAST_KEEPS.get(cast)

    def read(tb, group, regs, preds):
        block = tb.block(name, predicate, group)
        return block if block.dtype is keep else cast(block)

    return read


def _per_warp_block_reader(rows: Tuple[np.ndarray, ...]) -> Reader:
    every = _shared(np.array(rows))

    def read(tb, group, regs, preds):
        # A group is in TB order: as many warps as the TB holds are all of them.
        if len(group) == len(every):
            return every
        return every[[w.warp_id for w in group.warps]]

    return read


def _reader(operand, ctx: ExecutionContext, cast: Callable, group: bool = False) -> Reader:
    """Bind the read of ``operand``, cast with ``cast``, for one engine;
    ``group`` binds the group reader."""
    if isinstance(operand, (Register, Predicate)) and group:
        return _block_reader(operand.name, isinstance(operand, Predicate), cast)
    if isinstance(operand, Register):
        return _register_reader(operand.name, cast)
    if isinstance(operand, Predicate):
        return _predicate_reader(operand.name, cast)
    per_warp = _per_warp_block_reader if group else _per_warp_reader
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
        return per_warp(tuple(_shared(cast(ctx.layout.tid(w, axis))) for w in warps))
    if name == "warpid":
        return per_warp(tuple(_shared(cast(np.full(n, w, dtype=_INT))) for w in warps))
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


def _group_guard_reader(inst: Instruction) -> Optional[Reader]:
    """The group reader of the lanes predication keeps, as a block."""
    if inst.guard is None:
        return None
    read = _block_reader(inst.guard.name, True, _raw)
    if not inst.guard_negated:
        return read

    def guard(tb, group, regs, preds):
        return ~read(tb, group, regs, preds)

    return guard


def _address_reader(inst: Instruction, ctx: ExecutionContext, group: bool = False) -> Reader:
    mem = inst.mem
    base = _reader(mem.base, ctx, _to_int, group)
    index = _reader(mem.index, ctx, _to_int, group) if mem.index is not None else None
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


def _select(inst: Instruction, ctx: ExecutionContext, cast: Callable, group: bool) -> Reader:
    a = _reader(inst.srcs[0], ctx, cast, group)
    b = _reader(inst.srcs[1], ctx, cast, group)
    p = _reader(inst.srcs[2], ctx, _raw, group)

    def select(tb, warp, regs, preds):
        x = a(tb, warp, regs, preds)
        y = b(tb, warp, regs, preds)
        return np.where(p(tb, warp, regs, preds).astype(bool), x, y)

    return select


def _value_compute(inst: Instruction, ctx: ExecutionContext, group: bool = False) -> Reader:
    """The vector an ALU, SFU or ``setp`` instruction produces (with
    ``group``, the block a group of warps produces)."""
    op = inst.opcode
    is_float = inst.dtype.is_float
    if op is Opcode.SELP:
        return _select(inst, ctx, _OPERAND_CAST[_TYPED, is_float], group)
    if op is Opcode.SETP:
        if inst.cmp not in _COMPARE:
            raise ExecutionError(f"setp without a comparison: {inst}")
        kind, fn = _TYPED, _COMPARE[inst.cmp]
    elif op in _ALU:
        kind, fn = _ALU[op]
    else:
        raise ExecutionError(f"unimplemented opcode {op}")
    cast = _OPERAND_CAST[kind, is_float]
    return _compute(fn, [_reader(s, ctx, cast, group) for s in inst.srcs])


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
    predicate = inst.opcode is Opcode.SETP
    if predicate:
        dest, commit = inst.dest_predicate().name, WarpRegisterFile.commit_pred
    else:
        dest, commit = inst.dest_register().name, WarpRegisterFile.commit

    def alu(engine, tb, warp, regs, preds):
        # _exec_mask, _advance and a full-mask commit, inlined: this is
        # the micro-op the timing model runs most.
        stack = warp.stack
        top = stack[-1]
        if guard is None:
            exec_mask = top.active_mask
            full = top.full
        else:
            exec_mask = top.active_mask & guard(warp, preds)
            full = np.count_nonzero(exec_mask) == exec_mask.size
        value = compute(tb, warp, regs, preds)
        if not full:
            commit(warp.registers, dest, value, exec_mask, False)
        elif predicate:
            warp.registers._preds[dest] = value
        else:
            warp.registers._regs[dest] = value
        top.pc += INSTRUCTION_BYTES
        if len(stack) > 1:
            warp.maybe_reconverge()
        return StepResult(inst, exec_mask, value)

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
        return StepResult(inst, exec_mask, value, mem_addresses=addresses)

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
        return StepResult(inst, exec_mask, mem_addresses=addresses)

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
        return StepResult(inst, exec_mask, value, mem_addresses=addresses)

    return atomic


def _decode_branch(inst: Instruction, ctx: ExecutionContext) -> MicroOp:
    guard = _guard_reader(inst)
    pc = inst.pc
    fallthrough = pc + INSTRUCTION_BYTES
    target = inst.target_pc
    assert target is not None

    def branch(engine, tb, warp, regs, preds):
        taken, full = _exec_mask(warp, guard, preds)
        result = StepResult(inst, taken)
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
        result = StepResult(inst, _exec_mask(warp, guard, preds)[0])
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
        result = StepResult(inst, _exec_mask(warp, guard, preds)[0])
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


# -- decode: group micro-ops --------------------------------------------------
#
# A group micro-op runs one instruction for a group of warps that are all
# at its PC with a one-level SIMT stack, and returns ``(values,
# exec_masks)`` for the tracer: the ``[warps, lanes]`` destination block
# (None when no register is written) and the exec-mask block (None when
# every lane of every warp runs).  Each warp's register file stores its
# row of the destination block as a view.  Every check that can fail (a
# source held in different dtypes, an address out of range or
# misaligned) comes before the first write, so a group that cannot run
# leaves no trace and its warps run one at a time instead.


def _group_exec(tb: ThreadBlockState, group: WarpGroup, guard: Optional[Reader]):
    """``(fulls, masks)``: whether each warp's exec mask is every lane of
    the warp, as :func:`_exec_mask` says, and the exec masks as one
    block, or None when every one is full."""
    if guard is None:
        return group.fulls, group.active
    masks = guard(tb, group, _NO_OVERRIDES, _NO_OVERRIDES)
    if group.active is not None:
        masks = group.active & masks
    fulls = masks.all(axis=1).tolist()
    return fulls, None if all(fulls) else masks


def _as_block(value: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """A block as is; a vector every warp shares, broadcast to ``shape``."""
    return value if value.ndim == 2 else np.broadcast_to(value, shape)


def _advance_group(group: WarpGroup, pc: int) -> None:
    for top in group.tops:
        top.pc = pc


def _write_group(tb, group, dest, predicate, value, fulls, masks, next_pc) -> None:
    """Write each warp's row of ``value`` to register (or predicate)
    ``dest`` under its exec mask, as :meth:`WarpRegisterFile.commit`
    does, and move the warps on to ``next_pc``.  A block every warp
    stores whole is kept for the next group read."""
    rows = list(value)
    if masks is None:
        WarpRegisterFile.store_rows(group.files, dest, rows, predicate)
        tb.keep_block(dest, predicate, value, rows)
    else:
        commit = WarpRegisterFile.commit_pred if predicate else WarpRegisterFile.commit
        for rf, row, mask, full in zip(group.files, rows, masks, fulls):
            commit(rf, dest, row, mask, full)
    _advance_group(group, next_pc)


def _decode_group_value(inst: Instruction, ctx: ExecutionContext) -> GroupOp:
    guard = _group_guard_reader(inst)
    compute = _value_compute(inst, ctx, group=True)
    predicate = inst.opcode is Opcode.SETP
    dest = (inst.dest_predicate() if predicate else inst.dest_register()).name
    next_pc = inst.pc + INSTRUCTION_BYTES
    n = ctx.launch.warp_size

    def alu(engine, tb, group):
        fulls, masks = _group_exec(tb, group, guard)
        value = compute(tb, group, _NO_OVERRIDES, _NO_OVERRIDES)
        if value.ndim == 1:
            value = np.broadcast_to(value, (len(group), n)).copy()
        _write_group(tb, group, dest, predicate, value, fulls, masks, next_pc)
        return value, masks

    return alu


def _decode_group_load(inst: Instruction, ctx: ExecutionContext) -> GroupOp:
    guard = _group_guard_reader(inst)
    is_global = _space_is_global(inst)
    address = _address_reader(inst, ctx, group=True)
    as_float = inst.dtype.is_float
    dest = inst.dest_register().name
    next_pc = inst.pc + INSTRUCTION_BYTES
    n = ctx.launch.warp_size

    def load(engine, tb, group):
        fulls, masks = _group_exec(tb, group, guard)
        space = engine.ctx.memory if is_global else tb.shared
        shape = (len(group), n)
        addresses = _as_block(address(tb, group, _NO_OVERRIDES, _NO_OVERRIDES), shape)
        if masks is not None:
            addresses = np.where(masks, addresses, 0)
        # Flat: the address check's OR-screen reduces only axis 0 of a block.
        value = space.load(addresses.ravel(), as_float=as_float).reshape(shape)
        _write_group(tb, group, dest, False, value, fulls, masks, next_pc)
        return value, masks

    return load


def _decode_group_store(inst: Instruction, ctx: ExecutionContext) -> GroupOp:
    guard = _group_guard_reader(inst)
    is_global = _space_is_global(inst)
    address = _address_reader(inst, ctx, group=True)
    data = _reader(inst.srcs[0], ctx, _to_float if inst.dtype.is_float else _to_int, True)
    next_pc = inst.pc + INSTRUCTION_BYTES
    n = ctx.launch.warp_size

    def store(engine, tb, group):
        _fulls, masks = _group_exec(tb, group, guard)
        space = engine.ctx.memory if is_global else tb.shared
        shape = (len(group), n)
        addr = _as_block(address(tb, group, _NO_OVERRIDES, _NO_OVERRIDES), shape)
        values = _as_block(data(tb, group, _NO_OVERRIDES, _NO_OVERRIDES), shape)
        # In C order a later warp's lanes come after an earlier warp's, so
        # the last writer of a word is the one the per-warp order gives.
        if masks is None:
            space.store(addr.ravel(), values.ravel())
        elif masks.any():
            space.store(addr[masks], values[masks])
        _advance_group(group, next_pc)
        return None, masks

    return store


def _decode_group_branch(inst: Instruction, ctx: ExecutionContext) -> GroupOp:
    guard = _group_guard_reader(inst)
    pc = inst.pc
    fallthrough = pc + INSTRUCTION_BYTES
    target = inst.target_pc
    assert target is not None

    def branch(engine, tb, group):
        fulls, masks = _group_exec(tb, group, guard)
        if masks is None:
            _advance_group(group, target)
            return None, None
        # Each warp decides for its own mask, as the per-warp branch does.
        for warp, top, taken, full in zip(group.warps, group.tops, masks, fulls):
            if full:
                top.pc = target
            elif not taken.any():
                top.pc = fallthrough
            elif np.array_equal(taken, top.active_mask):
                top.pc = target
            else:
                warp.diverge(taken, fallthrough, target, engine.ctx.program.reconvergence_pc(pc))
                warp.maybe_reconverge()
        return None, masks

    return branch


def _decode_group_exit(inst: Instruction, ctx: ExecutionContext) -> GroupOp:
    guard = _group_guard_reader(inst)

    def exit_(engine, tb, group):
        _fulls, masks = _group_exec(tb, group, guard)
        for warp in group.warps:
            warp.retire()  # a one-level stack: the warp is done
        return None, masks

    return exit_


def _decode_group_nop(inst: Instruction, ctx: ExecutionContext) -> GroupOp:
    guard = _group_guard_reader(inst)
    barrier = inst.is_barrier
    next_pc = inst.pc + INSTRUCTION_BYTES

    def nop(engine, tb, group):
        _fulls, masks = _group_exec(tb, group, guard)
        if barrier:
            for warp in group.warps:
                warp.at_barrier = True
        _advance_group(group, next_pc)
        return None, masks

    return nop


_GROUP_DECODERS: Dict[Opcode, Callable[[Instruction, ExecutionContext], GroupOp]] = {
    Opcode.LD: _decode_group_load,
    Opcode.ST: _decode_group_store,
    Opcode.BRA: _decode_group_branch,
    Opcode.EXIT: _decode_group_exit,
    Opcode.BAR: _decode_group_nop,
    Opcode.NOP: _decode_group_nop,
}


def _decode_group(inst: Instruction, ctx: ExecutionContext) -> Optional[GroupOp]:
    """Decode ``inst`` into a group micro-op, or None when its warps run
    one at a time: the order of an atomic's read-modify-writes across
    warps is observable."""
    if inst.opcode not in _GROUP_DECODERS and inst.opcode in _DECODERS:
        return None
    try:
        return _GROUP_DECODERS.get(inst.opcode, _decode_group_value)(inst, ctx)
    except ExecutionError:
        return None  # the per-warp decode raises it


class FunctionalEngine:
    """Executes instructions with architectural semantics."""

    def __init__(self, ctx: ExecutionContext, tracer: Optional[Tracer] = None):
        self.ctx = ctx
        self.tracer = tracer
        self.instructions_executed = 0
        #: ``id(inst) -> (inst, micro-op)``; holding ``inst`` keeps its id
        #: from being reused while the entry lives.
        self._decoded: Dict[int, Tuple[Instruction, MicroOp]] = {}
        #: ``id(inst) -> (inst, group micro-op or None)``, likewise
        self._group_decoded: Dict[int, Tuple[Instruction, Optional[GroupOp]]] = {}

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

    def execute_group(self, tb: ThreadBlockState, group: WarpGroup, inst: Instruction) -> bool:
        """Execute ``inst`` for every warp of ``group``, all at its PC, as
        one group micro-op, advance their PCs and record them in warp
        order.

        Returns False, having changed nothing, when ``inst`` has no group
        form or the group cannot run as one (a source held in different
        dtypes, an address out of range or misaligned); the caller then
        runs the warps one at a time, through :meth:`execute_instruction`.
        """
        entry = self._group_decoded.get(id(inst))
        if entry is None:
            entry = self._group_decoded[id(inst)] = (inst, _decode_group(inst, self.ctx))
        group_op = entry[1]
        if group_op is None:
            return False
        try:
            values, exec_masks = group_op(self, tb, group)
        except (_MixedDtypes, MemoryError_):
            return False
        self.instructions_executed += len(group)
        if self.tracer is not None:
            self.tracer.record_group(tb, group.warps, inst, values, exec_masks)
        return True


def _lock_step_pc(warps: Sequence[WarpState]) -> Optional[int]:
    """The PC every warp of ``warps`` is at with a one-level SIMT stack,
    or None when they are not in lock step, or fewer than two (a block of
    one row costs more than the per-warp micro-op)."""
    if len(warps) < 2:
        return None
    pc = warps[0].stack[-1].pc
    for warp in warps:
        stack = warp.stack
        if len(stack) != 1 or stack[0].pc != pc:
            return None
    return pc


def _run_lock_step(
    engine: FunctionalEngine, tb: ThreadBlockState, group: WarpGroup, pc: int, budget: int
) -> Tuple[int, bool]:
    """Run rounds of ``group``, lock-stepped at ``pc``, as groups for as
    long as the engine groups them and ``budget`` warp-instructions last.

    Returns the warp-instructions run and whether the last round is done:
    after a group of a control instruction, which may have parted, parked
    or retired the warps.  Otherwise the warps are still lock-stepped at
    the next PC and the round there is still to run, warp by warp.
    """
    program = engine.ctx.program
    ran = 0
    while ran + len(group) <= budget:
        inst = program.at(pc)
        if not engine.execute_group(tb, group, inst):
            break
        ran += len(group)
        if inst.opcode in CONTROL_OPS:
            return ran, True
        pc += INSTRUCTION_BYTES
    return ran, False


def run_threadblocks(
    engine: FunctionalEngine, max_steps: int = 50_000_000
) -> Iterator[ThreadBlockState]:
    """Run the engine's launch to completion, yielding each threadblock
    as it finishes.

    Threadblocks execute one after another; within a TB, live warps are
    stepped round-robin one instruction at a time, which approximates the
    lock-step progression DARSIE's static analysis assumes (Section 4.2)
    and aligns dynamic instruction streams for the limit studies.

    A round in which every runnable warp is at one PC with a one-level
    SIMT stack runs as one :meth:`FunctionalEngine.execute_group` call,
    and so do the rounds after it for as long as they group: a group
    round leaves its warps runnable and in lock step.  Any other round,
    and a group the engine declines, runs warp by warp.  Both orders
    give the same trace, memory and registers: within a round each warp
    reads only its own registers, and a group store writes in warp order.
    ``max_steps`` counts every warp; a group that would cross it runs
    warp by warp, so the error comes after the same instruction.
    """
    ctx = engine.ctx
    program = ctx.program
    tracer = engine.tracer
    steps = 0
    for tb_index in range(ctx.launch.num_blocks):
        tb = ThreadBlockState(ctx, tb_index)
        if tracer is not None:
            tracer.begin_block(tb)
        while not tb.done:
            warps = [w for w in tb.warps if not (w.exited or w.at_barrier)]
            if not warps:
                if not tb.release_barrier_if_ready():
                    raise ExecutionError("deadlock: no runnable warps and barrier not ready")
                continue
            pc = _lock_step_pc(warps)
            if pc is not None:
                ran, round_done = _run_lock_step(
                    engine, tb, WarpGroup(warps), pc, max_steps - steps
                )
                steps += ran
                if round_done:
                    tb.release_barrier_if_ready()
                    continue
            for warp in warps:
                engine.execute_instruction(tb, warp, program.at(warp.pc))
                steps += 1
                if steps > max_steps:
                    raise ExecutionError(f"exceeded {max_steps} steps; runaway kernel?")
            tb.release_barrier_if_ready()
        yield tb


def run_functional(
    program: Program,
    launch: LaunchConfig,
    memory: GlobalMemory,
    params: Optional[Dict] = None,
    tracer: Optional[Tracer] = None,
    max_steps: int = 50_000_000,
) -> FunctionalEngine:
    """Run a kernel to completion functionally (see :func:`run_threadblocks`).

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
    for _tb in run_threadblocks(engine, max_steps):
        pass
    return engine
