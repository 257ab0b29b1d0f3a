"""PTXPlus-like instruction set architecture for the DARSIE reproduction.

The paper implements DARSIE inside GPGPU-Sim on *register-allocated
PTXPlus* code (Section 5).  This subpackage provides the equivalent
substrate: a small, explicit assembly language with named registers,
special registers (``%tid.x`` et al.), predicated branches and typed
memory operations, together with an assembler, basic blocks with their
reconvergence points and a 64-bit instruction encoding that carries the
redundancy hint bits of Section 4.2.

Public entry points:

- :func:`repro.isa.assembler.assemble` — parse kernel assembly text into a
  :class:`repro.isa.program.Program`.
- :class:`repro.isa.program.Program` — instructions, labels, basic
  blocks and reconvergence points.
- :mod:`repro.isa.encoding` — pack/unpack instructions into the 64-bit
  machine form whose spare bit encodes TB-redundancy.
"""

from repro.isa.assembler import AssemblyError, assemble
from repro.isa.instructions import (
    ALU_OPS,
    BRANCH_OPS,
    INSTRUCTION_BYTES,
    Instruction,
    LOAD_OPS,
    MEMORY_OPS,
    Opcode,
    SFU_OPS,
    STORE_OPS,
)
from repro.isa.operands import (
    Immediate,
    MemRef,
    MemSpace,
    Operand,
    Param,
    Predicate,
    Register,
    Special,
)
from repro.isa.program import BasicBlock, Program

__all__ = [
    "AssemblyError",
    "assemble",
    "INSTRUCTION_BYTES",
    "ALU_OPS",
    "BRANCH_OPS",
    "LOAD_OPS",
    "MEMORY_OPS",
    "SFU_OPS",
    "STORE_OPS",
    "Instruction",
    "Opcode",
    "Immediate",
    "MemRef",
    "MemSpace",
    "Operand",
    "Param",
    "Predicate",
    "Register",
    "Special",
    "BasicBlock",
    "Program",
]
