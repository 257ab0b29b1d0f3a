"""Instruction set definition.

Every instruction occupies :data:`INSTRUCTION_BYTES` (8) bytes, matching
the paper's observation that "as all instructions are 64-bits in length,
redundant ones can be skipped in the frontend of the pipeline by simply
adding eight to the program counter" (Section 4).

The opcode set is the subset of PTXPlus needed by the thirteen studied
workloads: integer/float ALU ops, transcendental SFU ops, predicate
set/select, typed loads and stores for the global and shared spaces, a
global atomic (to exercise DARSIE's load-invalidation rule), predicated
branches, ``bar.sync`` and ``exit``.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.operands import MemRef, Operand, Predicate, Register

#: Size of every encoded instruction; PC advances in units of this.
INSTRUCTION_BYTES = 8


class Opcode(enum.Enum):
    """Base opcodes (type and comparison modifiers are carried separately)."""

    # Data movement / conversion.
    MOV = "mov"
    CVT = "cvt"
    SELP = "selp"
    # Integer & float arithmetic (ALU class).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAD = "mad"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    REM = "rem"
    # Long-latency transcendental / divide (SFU class).
    DIV = "div"
    RCP = "rcp"
    SQRT = "sqrt"
    EX2 = "ex2"
    LG2 = "lg2"
    SIN = "sin"
    COS = "cos"
    # Predicates.
    SETP = "setp"
    # Memory.
    LD = "ld"
    ST = "st"
    ATOM = "atom"
    # Control.
    BRA = "bra"
    BAR = "bar"
    EXIT = "exit"
    NOP = "nop"


class DType(enum.Enum):
    """Operation data type (``.u32`` / ``.s32`` / ``.f32`` suffixes)."""

    U32 = "u32"
    S32 = "s32"
    F32 = "f32"
    PRED = "pred"

    @property
    def is_float(self) -> bool:
        return self is DType.F32


class CmpOp(enum.Enum):
    """Comparison operators for ``setp``."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


#: Opcode groupings used by the timing model to pick a functional unit.
SFU_OPS = frozenset(
    {Opcode.DIV, Opcode.RCP, Opcode.SQRT, Opcode.EX2, Opcode.LG2, Opcode.SIN, Opcode.COS}
)
LOAD_OPS = frozenset({Opcode.LD})
STORE_OPS = frozenset({Opcode.ST})
MEMORY_OPS = frozenset({Opcode.LD, Opcode.ST, Opcode.ATOM})
BRANCH_OPS = frozenset({Opcode.BRA})
CONTROL_OPS = frozenset({Opcode.BRA, Opcode.BAR, Opcode.EXIT})
ALU_OPS = frozenset(
    {
        Opcode.MOV,
        Opcode.CVT,
        Opcode.SELP,
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.MAD,
        Opcode.MIN,
        Opcode.MAX,
        Opcode.ABS,
        Opcode.NEG,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.NOT,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.REM,
        Opcode.SETP,
    }
)

#: Number of register source operands each opcode expects (memory and
#: control operands are validated separately by the assembler).
_ARITY = {
    Opcode.MOV: 1,
    Opcode.CVT: 1,
    Opcode.SELP: 3,
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.MUL: 2,
    Opcode.MAD: 3,
    Opcode.MIN: 2,
    Opcode.MAX: 2,
    Opcode.ABS: 1,
    Opcode.NEG: 1,
    Opcode.AND: 2,
    Opcode.OR: 2,
    Opcode.XOR: 2,
    Opcode.NOT: 1,
    Opcode.SHL: 2,
    Opcode.SHR: 2,
    Opcode.REM: 2,
    Opcode.DIV: 2,
    Opcode.RCP: 1,
    Opcode.SQRT: 1,
    Opcode.EX2: 1,
    Opcode.LG2: 1,
    Opcode.SIN: 1,
    Opcode.COS: 1,
    Opcode.SETP: 2,
    Opcode.LD: 0,
    Opcode.ST: 0,
    Opcode.ATOM: 1,
    Opcode.BRA: 0,
    Opcode.BAR: 0,
    Opcode.EXIT: 0,
    Opcode.NOP: 0,
}


def source_arity(opcode: Opcode) -> int:
    """Number of direct (non-memory) source operands ``opcode`` takes."""
    return _ARITY[opcode]


def stable_bank(key: Tuple[str, str], banks: int) -> int:
    """Map a scoreboard key to a register-file bank, deterministically.

    The builtin ``hash`` is randomized per process for strings, which
    made bank-conflict counters differ from run to run; CRC32 gives the
    same assignment in every interpreter.
    """
    return zlib.crc32(("%s:%s" % key).encode()) % banks


@dataclass
class Instruction:
    """One decoded 64-bit instruction.

    Attributes
    ----------
    pc:
        Byte address of the instruction (a multiple of 8).
    opcode / dtype / cmp:
        Operation, data type and (for ``setp``) comparison operator.
    dst:
        Destination register or predicate, or ``None``.
    srcs:
        Direct source operands in instruction order.
    mem:
        Memory operand for ``ld``/``st``/``atom``.
    target:
        Branch target label (``bra`` only); resolved to
        :attr:`target_pc` by the assembler.
    guard / guard_negated:
        Optional ``@$p`` / ``@!$p`` predication.
    """

    pc: int
    opcode: Opcode
    dtype: DType = DType.S32
    cmp: Optional[CmpOp] = None
    dst: Optional[Operand] = None
    srcs: Tuple[Operand, ...] = ()
    mem: Optional[MemRef] = None
    target: Optional[str] = None
    target_pc: Optional[int] = None
    guard: Optional[Predicate] = None
    guard_negated: bool = False
    text: str = ""
    index: int = field(default=-1)

    def __post_init__(self) -> None:
        # Decode products are derived only from the opcode and operands,
        # neither of which is mutated after construction (the assembler
        # only back-patches ``index`` and ``target_pc``), so they are
        # computed once here instead of per simulated cycle.
        op = self.opcode
        self.is_branch = op in BRANCH_OPS
        self.is_load = op in LOAD_OPS
        self.is_store = op in STORE_OPS
        self.is_memory = op in MEMORY_OPS
        self.is_barrier = op is Opcode.BAR
        self.is_exit = op is Opcode.EXIT
        self.is_atomic = op is Opcode.ATOM
        self.uses_sfu = op in SFU_OPS
        self.src_regs = self._compute_source_registers()
        self.src_preds = self._compute_source_predicates()
        self.dst_reg = self.dst if isinstance(self.dst, Register) else None
        self.dst_pred = self.dst if isinstance(self.dst, Predicate) else None
        srcs = tuple(("r", r.name) for r in self.src_regs) + tuple(
            ("p", p.name) for p in self.src_preds
        )
        dests: Tuple[Tuple[str, str], ...] = ()
        if self.dst_reg is not None:
            dests += (("r", self.dst_reg.name),)
        if self.dst_pred is not None:
            dests += (("p", self.dst_pred.name),)
        self.sb_srcs = srcs
        self.sb_dests = dests
        # Primary destination key (register first, matching the DARSIE
        # rename unit's view of "the" written operand).
        self.dest_key: Optional[Tuple[str, str]] = dests[0] if dests else None
        self.hazard_keys = frozenset(srcs) | frozenset(dests)
        # Operand-collector reads per issue: register AND predicate
        # sources (matches the scoreboard source-key count).
        self.rf_read_count = len(srcs)

    def bank_info(self, rf_banks: int) -> Tuple[int, Tuple[int, ...]]:
        """Register-file bank picture for a ``rf_banks``-wide RF.

        Returns ``(conflicts, banks)`` where ``conflicts`` is the number
        of same-cycle operand-collector collisions among this
        instruction's register sources and ``banks`` is the bank index of
        each source operand.  Bank selection uses a stable CRC32-based
        hash so results are reproducible across processes (builtin
        ``hash`` is salted per interpreter for strings).  The operand
        collector asks once per instruction and run.
        """
        banks = tuple(stable_bank(k, rf_banks) for k in self.sb_srcs)
        return len(banks) - len(set(banks)), banks

    def source_registers(self) -> Tuple[Register, ...]:
        """All general registers read by this instruction.

        Includes address registers of a memory operand, the data sources
        of a store, and the guard predicate is *not* included (predicates
        live in a separate space; see :meth:`source_predicates`).
        """
        return self.src_regs

    def _compute_source_registers(self) -> Tuple[Register, ...]:
        regs = []
        for src in self.srcs:
            if isinstance(src, Register):
                regs.append(src)
        if self.mem is not None:
            regs.extend(self.mem.registers())
        return tuple(regs)

    def source_predicates(self) -> Tuple[Predicate, ...]:
        return self.src_preds

    def _compute_source_predicates(self) -> Tuple[Predicate, ...]:
        preds = [s for s in self.srcs if isinstance(s, Predicate)]
        if self.guard is not None:
            preds.append(self.guard)
        return tuple(preds)

    def dest_register(self) -> Optional[Register]:
        return self.dst_reg

    def dest_predicate(self) -> Optional[Predicate]:
        return self.dst_pred

    def __str__(self) -> str:
        if self.text:
            return self.text
        parts = []
        if self.guard is not None:
            bang = "!" if self.guard_negated else ""
            parts.append(f"@{bang}{self.guard}")
        name = self.opcode.value
        if self.cmp is not None:
            name += f".{self.cmp.value}"
        if self.opcode not in CONTROL_OPS and self.opcode is not Opcode.NOP:
            name += f".{self.dtype.value}"
        parts.append(name)
        ops = []
        if self.dst is not None and not (self.is_store or self.is_atomic):
            ops.append(str(self.dst))
        if self.is_store:
            ops.append(str(self.mem))
            ops.extend(str(s) for s in self.srcs)
        else:
            ops.extend(str(s) for s in self.srcs)
            if self.mem is not None:
                ops.append(str(self.mem))
        if self.target is not None:
            ops.append(self.target)
        return " ".join(parts) + (" " + ", ".join(ops) if ops else "")
