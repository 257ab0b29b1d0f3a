"""Execution tracing for the redundancy limit studies.

The taxonomy studies (Figures 1 and 2) need, for every dynamically
executed instruction, the *pattern* its output vector makes and whether
that pattern repeats across warps (TB-wide) or across the whole grid.

Storing every 32-lane vector would be prohibitive, so the tracer folds
each output into a compact :class:`ValueSummary` at record time:

- ``uniform``  — every lane holds the same scalar; summarised by value;
- ``affine``   — lanes form ``base + stride * lane`` with stride != 0;
  summarised by ``(base, stride)``;
- ``unstructured`` — anything else; summarised by a digest of the raw
  lane bytes.

Two warps executed the same redundant instruction iff their summaries
compare equal — exactly the paper's definition: affine redundancy is a
repeated ``(base, stride)`` pair, unstructured redundancy is equal vector
values "with no discernible pattern" (Section 2).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.isa.instructions import Instruction, Opcode, SFU_OPS

#: Summary pattern kinds.
UNIFORM = "uniform"
AFFINE = "affine"
UNSTRUCTURED = "unstructured"
NONE = "none"          # instruction produced no register value


@dataclass(frozen=True)
class ValueSummary:
    """Compact, comparable description of one 32-lane output vector."""

    kind: str
    base: float = 0.0
    stride: float = 0.0
    digest: int = 0

    @classmethod
    def of(cls, values: np.ndarray) -> "ValueSummary":
        if values.dtype.kind == "b":
            values = values.astype(np.int64)
        first = values[0]
        if (values == first).all():
            return cls(kind=UNIFORM, base=float(first))
        diffs = values[1:] - values[:-1]
        # A lone lane lands here only as NaN, which equals nothing.
        if diffs.size and (diffs == diffs[0]).all():
            return cls(kind=AFFINE, base=float(first), stride=float(diffs[0]))
        return cls(kind=UNSTRUCTURED, digest=zlib.crc32(np.ascontiguousarray(values).tobytes()))


#: The summary of an instruction that wrote no register.
_NO_SUMMARY = ValueSummary(kind=NONE)


@dataclass
class DynamicInstruction:
    """One executed warp instruction, as seen by the limit study."""

    __slots__ = ("tb_index", "warp_id", "pc", "occurrence", "opclass", "summary", "divergent")

    tb_index: int
    warp_id: int
    pc: int
    occurrence: int
    opclass: str
    summary: ValueSummary
    divergent: bool


def _opclass(inst: Instruction) -> str:
    if inst.opcode is Opcode.LD:
        return "load"
    if inst.opcode is Opcode.ST:
        return "store"
    if inst.opcode is Opcode.ATOM:
        return "atomic"
    if inst.is_branch:
        return "branch"
    if inst.opcode in (Opcode.BAR, Opcode.EXIT, Opcode.NOP):
        return "control"
    if inst.opcode in SFU_OPS:
        return "sfu"
    return "alu"


class Tracer:
    """Records executed instructions into an :class:`ExecutionTrace`."""

    def __init__(self) -> None:
        self.trace = ExecutionTrace()
        self._occurrence: Dict[Tuple[int, int, int], int] = {}
        #: ``id(inst) -> (inst, opclass)``, one entry per static instruction;
        #: holding ``inst`` keeps its id from being reused
        self._opclasses: Dict[int, Tuple[Instruction, str]] = {}

    def begin_block(self, tb) -> None:
        self.trace.warps_per_block = max(self.trace.warps_per_block, len(tb.warps))
        self.trace.num_blocks = max(self.trace.num_blocks, tb.tb_index + 1)

    def record(self, tb, warp, result) -> None:
        inst = result.inst
        key = (tb.tb_index, warp.warp_id, inst.pc)
        occ = self._occurrence.get(key, 0)
        self._occurrence[key] = occ + 1
        opclass = self._opclasses.get(id(inst))
        if opclass is None:
            opclass = self._opclasses[id(inst)] = (inst, _opclass(inst))
        hw = warp.hw_mask
        hw_full = np.count_nonzero(hw) == hw.size
        if result.dest_value is not None:
            values = np.asarray(result.dest_value)
            # A partial warp's dead lanes hold whatever the ALU computed
            # over stale inputs; they are never architecturally written,
            # so they must not break uniformity (or fabricate it).
            if not hw_full and values.shape == hw.shape:
                values = values[hw]
            summary = ValueSummary.of(values)
        else:
            summary = _NO_SUMMARY
        exec_mask = result.exec_mask
        if hw_full:
            divergent = np.count_nonzero(exec_mask) != exec_mask.size
        else:
            divergent = bool((hw & ~exec_mask).any())
        self.trace.records.append(
            DynamicInstruction(
                tb.tb_index, warp.warp_id, inst.pc, occ, opclass[1], summary, divergent
            )
        )


class ExecutionTrace:
    """All dynamic instructions of one functional kernel run."""

    def __init__(self) -> None:
        self.records: List[DynamicInstruction] = []
        self.warps_per_block: int = 0
        self.num_blocks: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def total_executed(self) -> int:
        return len(self.records)

    def grouped_by_tb(self) -> Iterator[Tuple[Tuple[int, int, int], List[DynamicInstruction]]]:
        """Group records by (tb, pc, occurrence) — one group per static
        instruction instance, holding the per-warp executions."""
        groups: Dict[Tuple[int, int, int], List[DynamicInstruction]] = {}
        for rec in self.records:
            groups.setdefault((rec.tb_index, rec.pc, rec.occurrence), []).append(rec)
        return iter(groups.items())

    def grouped_by_grid(self) -> Iterator[Tuple[Tuple[int, int], List[DynamicInstruction]]]:
        """Group records by (pc, occurrence) across the entire grid."""
        groups: Dict[Tuple[int, int], List[DynamicInstruction]] = {}
        for rec in self.records:
            groups.setdefault((rec.pc, rec.occurrence), []).append(rec)
        return iter(groups.items())
