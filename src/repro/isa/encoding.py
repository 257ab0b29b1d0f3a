"""64-bit machine encoding with DARSIE redundancy hint bits.

Section 4.2 of the paper: the three-state ``<vector, conditionally
redundant, redundant>`` classification is encoded "in two bits of the
GPU's virtual ISA"; reverse-engineering of the 64-bit SASS encoding shows
"many unused bits", one (or two, if promotion is deferred past JIT) of
which carries the marking.  We reproduce that shape: every instruction
packs into one 64-bit word, two bits of which hold the redundancy hint.

Like a real machine encoding, operands wider than a field reference a
literal/operand pool emitted alongside the text segment (SASS uses a
constant bank for the same purpose).

Word layout (LSB first)::

    [ 0: 5]  opcode        (6 bits)
    [ 6: 7]  dtype         (2 bits)
    [ 8:10]  cmp           (3 bits, 0 = none)
    [11:12]  redundancy    (2 bits: 0 VEC, 1 CRy, 2 CR, 3 DR)
    [13]     has guard
    [14]     guard negated
    [15]     has memory operand
    [16:23]  guard pool id
    [24:31]  dst pool id
    [32:39]  src0 pool id   -- or low 8 bits of branch-target word index
    [40:47]  src1 pool id   -- or high 8 bits of branch-target word index
    [48:55]  src2 pool id
    [56:63]  mem pool id
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.instructions import CmpOp, DType, INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.operands import Operand
from repro.isa.program import Program

_OPCODES = list(Opcode)
_OPCODE_ID = {op: i for i, op in enumerate(_OPCODES)}
_DTYPES = list(DType)
_DTYPE_ID = {d: i for i, d in enumerate(_DTYPES)}
_CMPS = [None] + list(CmpOp)
_CMP_ID = {c: i for i, c in enumerate(_CMPS)}

#: Redundancy hint values (mirror ``repro.core.taxonomy.Marking``).  The
#: paper needs two bits for its three states; the fourth encoding is
#: used by this repository's 3D extension (tid.y-conditional).
HINT_VECTOR = 0
HINT_CONDITIONAL_Y = 1
HINT_CONDITIONAL = 2
HINT_REDUNDANT = 3

_NO_OPERAND = 0xFF
MAX_POOL_SIZE = 0xFF


class EncodingError(ValueError):
    """Raised when a program does not fit the encoding limits."""


@dataclass
class EncodedProgram:
    """A program lowered to 64-bit words plus its operand pool."""

    name: str
    words: List[int]
    pool: List[Operand]
    labels: Dict[str, int]
    params: tuple
    shared_words: int = 0

    def __len__(self) -> int:
        return len(self.words)

    def hint_of(self, pc: int) -> int:
        """The redundancy hint bits of the instruction at ``pc``."""
        return (self.words[pc // INSTRUCTION_BYTES] >> 11) & 0b11


class _Pool:
    def __init__(self) -> None:
        self.items: List[Operand] = []
        self._ids: Dict[Operand, int] = {}

    def intern(self, operand: Optional[Operand]) -> int:
        if operand is None:
            return _NO_OPERAND
        if operand not in self._ids:
            if len(self.items) >= MAX_POOL_SIZE:
                raise EncodingError("operand pool overflow (255 distinct operands)")
            self._ids[operand] = len(self.items)
            self.items.append(operand)
        return self._ids[operand]


def encode_instruction(inst: Instruction, pool: _Pool, hint: int = HINT_VECTOR) -> int:
    """Pack ``inst`` into a 64-bit word, interning operands into ``pool``."""
    if not 0 <= hint <= 3:
        raise EncodingError(f"invalid redundancy hint {hint}")
    word = _OPCODE_ID[inst.opcode]
    word |= _DTYPE_ID[inst.dtype] << 6
    word |= _CMP_ID[inst.cmp] << 8
    word |= hint << 11
    if inst.guard is not None:
        word |= 1 << 13
        if inst.guard_negated:
            word |= 1 << 14
    if inst.mem is not None:
        word |= 1 << 15
    word |= pool.intern(inst.guard) << 16
    word |= pool.intern(inst.dst) << 24
    if inst.is_branch:
        assert inst.target_pc is not None
        tgt = inst.target_pc // INSTRUCTION_BYTES
        if tgt > 0xFFFF:
            raise EncodingError("branch target out of range")
        word |= (tgt & 0xFF) << 32
        word |= ((tgt >> 8) & 0xFF) << 40
        word |= _NO_OPERAND << 48
    else:
        srcs = list(inst.srcs) + [None] * (3 - len(inst.srcs))
        if len(srcs) > 3:
            raise EncodingError("more than 3 source operands")
        word |= pool.intern(srcs[0]) << 32
        word |= pool.intern(srcs[1]) << 40
        word |= pool.intern(srcs[2]) << 48
    word |= pool.intern(inst.mem) << 56
    assert word < (1 << 64)
    return word


def encode_program(program: Program, markings=None) -> EncodedProgram:
    """Encode a program; ``markings`` maps PC → hint value (0–3, the
    ``Marking`` values: VEC, CRy, CR, DR)."""
    pool = _Pool()
    words = []
    for inst in program.instructions:
        hint = (markings or {}).get(inst.pc, HINT_VECTOR)
        words.append(encode_instruction(inst, pool, hint))
    return EncodedProgram(
        name=program.name,
        words=words,
        pool=pool.items,
        labels=dict(program.labels),
        params=program.params,
        shared_words=program.shared_words,
    )


def _pool_get(pool: List[Operand], idx: int) -> Optional[Operand]:
    return None if idx == _NO_OPERAND else pool[idx]


def decode_instruction(word: int, pc: int, pool: List[Operand]) -> Instruction:
    """Unpack one 64-bit word back into an :class:`Instruction`."""
    opcode = _OPCODES[word & 0x3F]
    dtype = _DTYPES[(word >> 6) & 0b11]
    cmp = _CMPS[(word >> 8) & 0b111]
    has_guard = bool(word & (1 << 13))
    guard_negated = bool(word & (1 << 14))
    guard = _pool_get(pool, (word >> 16) & 0xFF) if has_guard else None
    dst = _pool_get(pool, (word >> 24) & 0xFF)
    mem = _pool_get(pool, (word >> 56) & 0xFF) if word & (1 << 15) else None
    target_pc = None
    srcs: tuple = ()
    if opcode is Opcode.BRA:
        tgt = ((word >> 32) & 0xFF) | (((word >> 40) & 0xFF) << 8)
        target_pc = tgt * INSTRUCTION_BYTES
    else:
        collected = []
        for shift in (32, 40, 48):
            operand = _pool_get(pool, (word >> shift) & 0xFF)
            if operand is not None:
                collected.append(operand)
        srcs = tuple(collected)
    return Instruction(
        pc=pc,
        opcode=opcode,
        dtype=dtype,
        cmp=cmp,
        dst=dst,
        srcs=srcs,
        mem=mem,
        target_pc=target_pc,
        guard=guard,
        guard_negated=guard_negated,
    )


def decode_program(encoded: EncodedProgram) -> Program:
    """Decode back to a :class:`Program` (labels regenerated from targets)."""
    instructions = []
    for i, word in enumerate(encoded.words):
        inst = decode_instruction(word, i * INSTRUCTION_BYTES, encoded.pool)
        inst.index = i
        instructions.append(inst)
    labels = dict(encoded.labels)
    pc_to_label = {v: k for k, v in labels.items()}
    for inst in instructions:
        if inst.target_pc is not None:
            if inst.target_pc not in pc_to_label:
                lbl = f"L{inst.target_pc:#x}"
                labels[lbl] = inst.target_pc
                pc_to_label[inst.target_pc] = lbl
            inst.target = pc_to_label[inst.target_pc]
    return Program(
        name=encoded.name,
        instructions=instructions,
        labels=labels,
        params=encoded.params,
        shared_words=encoded.shared_words,
    )
