"""Execution tracing for the redundancy limit studies.

The taxonomy studies (Figures 1 and 2) need, for every dynamically
executed instruction, the *pattern* its output vector makes and whether
that pattern repeats across warps (TB-wide) or across the whole grid.

Storing every 32-lane vector would be prohibitive, so the tracer folds
each output into a compact :class:`ValueSummary`:

- ``uniform``  — every lane holds the same scalar; summarised by value;
- ``affine``   — lanes form ``base + stride * lane`` with stride != 0;
  summarised by ``(base, stride)``;
- ``unstructured`` — anything else; summarised by a digest of the raw
  lane bytes.

Two warps executed the same redundant instruction iff their summaries
compare equal — exactly the paper's definition: affine redundancy is a
repeated ``(base, stride)`` pair, unstructured redundancy is equal vector
values "with no discernible pattern" (Section 2).

Summaries are made in bulk, not one vector at a time: :meth:`Tracer.record`
holds each output vector and the warp's masks in a pending batch, which
:func:`summarize_rows` classifies with 2-D numpy reductions when it
reaches :data:`BATCH_ROWS` rows and whenever :attr:`Tracer.trace` is
read.  Holding the vectors is safe only because register vectors and
SIMT masks are never mutated in place (DESIGN §4d).
:meth:`ValueSummary.of` is the per-vector reference the bulk path
matches bit for bit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.isa.instructions import Instruction, Opcode, SFU_OPS

#: Summary pattern kinds.
UNIFORM = "uniform"
AFFINE = "affine"
UNSTRUCTURED = "unstructured"
NONE = "none"          # instruction produced no register value

#: Rows a tracer holds before it summarizes them, about 0.2 MB of
#: vectors.  Larger batches were no faster and raised peak memory.
BATCH_ROWS = 512


class ValueSummary(NamedTuple):
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


#: The kinds :func:`summarize_rows` codes as 0 (none), 1 (uniform),
#: 2 (affine) and 3 (unstructured).
_KINDS = (NONE, UNIFORM, AFFINE, UNSTRUCTURED)


def summarize_rows(rows: Sequence[Optional[np.ndarray]]) -> List[ValueSummary]:
    """``[ValueSummary.of(row) for row in rows]``, computed in bulk.

    Rows of one dtype and length are stacked and tested for uniform and
    affine with 2-D reductions; crc32 runs only on the unstructured
    ones.  A ``None`` row (no register written) summarizes as ``none``;
    a row that is empty or not 1-D goes through :meth:`ValueSummary.of`.
    """
    n = len(rows)
    kinds = np.zeros(n, dtype=np.int8)
    bases = np.zeros(n)
    strides = np.zeros(n)
    digests = [0] * n
    groups: Dict[Tuple[np.dtype, Tuple[int, ...]], List[int]] = {}
    for i, row in enumerate(rows):
        if row is not None:
            groups.setdefault((row.dtype, row.shape), []).append(i)
    irregular = []
    for (dtype, shape), index in groups.items():
        if len(shape) != 1 or not shape[0]:
            irregular += index
            continue
        block = np.array([rows[i] for i in index], dtype=dtype)
        if dtype.kind == "b":
            block = block.astype(np.int64)
        at = np.array(index)
        first = block[:, 0]
        structured = (block == first[:, None]).all(axis=1)
        kinds[at] = np.where(structured, 1, 3)
        if shape[0] > 1:
            with np.errstate(invalid="ignore", over="ignore"):
                diffs = block[:, 1:] - block[:, :-1]
            affine = (diffs == diffs[:, :1]).all(axis=1) & ~structured
            kinds[at[affine]] = 2
            strides[at[affine]] = diffs[affine, 0]
            structured |= affine
        bases[at[structured]] = first[structured]
        # A lone lane lands here only as NaN, which equals nothing.
        for j in np.flatnonzero(~structured).tolist():
            digests[index[j]] = zlib.crc32(block[j])
    out = list(map(ValueSummary._make, zip(
        map(_KINDS.__getitem__, kinds.tolist()), bases.tolist(), strides.tolist(), digests,
    )))
    for i in np.flatnonzero(kinds == 0).tolist():
        out[i] = _NO_SUMMARY  # one shared object for every record of no value
    for i in irregular:
        out[i] = ValueSummary.of(rows[i])
    return out


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
        self._trace = ExecutionTrace()
        self._occurrence: Dict[Tuple[int, int, int], int] = {}
        #: ``id(inst) -> (inst, opclass)``, one entry per static instruction;
        #: holding ``inst`` keeps its id from being reused
        self._opclasses: Dict[int, Tuple[Instruction, str]] = {}
        #: records not yet summarized, with their destination vectors
        #: and the warps' hardware and exec masks, index for index
        self._pending: List[DynamicInstruction] = []
        self._values: List[Optional[np.ndarray]] = []
        self._hw_masks: List[np.ndarray] = []
        self._exec_masks: List[np.ndarray] = []

    @property
    def trace(self) -> ExecutionTrace:
        """Every instruction recorded so far, summaries included."""
        self._flush()
        return self._trace

    def begin_block(self, tb) -> None:
        trace = self._trace
        trace.warps_per_block = max(trace.warps_per_block, len(tb.warps))
        trace.num_blocks = max(trace.num_blocks, tb.tb_index + 1)

    def record(self, tb, warp, result) -> None:
        inst = result.inst
        key = (tb.tb_index, warp.warp_id, inst.pc)
        occ = self._occurrence.get(key, 0)
        self._occurrence[key] = occ + 1
        opclass = self._opclasses.get(id(inst))
        if opclass is None:
            opclass = self._opclasses[id(inst)] = (inst, _opclass(inst))
        pending = self._pending
        # The summary and the divergence flag are set when the batch is flushed.
        pending.append(DynamicInstruction(
            tb.tb_index, warp.warp_id, inst.pc, occ, opclass[1], _NO_SUMMARY, False
        ))
        self._values.append(result.dest_value)
        self._hw_masks.append(warp.hw_mask)
        self._exec_masks.append(result.exec_mask)
        if len(pending) >= BATCH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Summarize the pending batch and append it to the trace."""
        pending, rows, hws = self._pending, self._values, self._hw_masks
        if not pending:
            return
        hw = np.array(hws)
        divergent = (hw & ~np.array(self._exec_masks)).any(axis=1).tolist()
        for i in np.flatnonzero(~hw.all(axis=1)).tolist():
            # A partial warp's dead lanes hold whatever the ALU computed
            # over stale inputs; they are never architecturally written,
            # so they must not break uniformity (or fabricate it).
            if rows[i] is not None and rows[i].shape == hws[i].shape:
                rows[i] = rows[i][hws[i]]
        for rec, summary, div in zip(pending, summarize_rows(rows), divergent):
            rec.summary = summary
            rec.divergent = div
        self._trace.records.extend(pending)
        self._pending, self._values, self._hw_masks, self._exec_masks = [], [], [], []


class ExecutionTrace:
    """All dynamic instructions of one functional kernel run."""

    def __init__(self) -> None:
        self.records: List[DynamicInstruction] = []
        self.warps_per_block: int = 0
        self.num_blocks: int = 0
        #: ``(len(records), groups)`` behind :meth:`grouped_by_tb`
        self._tb_groups: Optional[Tuple[int, Dict]] = None

    def __len__(self) -> int:
        return len(self.records)

    def total_executed(self) -> int:
        return len(self.records)

    def grouped_by_tb(self) -> Iterator[Tuple[Tuple[int, int, int], List[DynamicInstruction]]]:
        """Group records by (tb, pc, occurrence) — one group per static
        instruction instance, holding the per-warp executions.

        The grouping is built once and reused until ``records`` grows;
        callers must not mutate the group lists."""
        cached = self._tb_groups
        if cached is None or cached[0] != len(self.records):
            groups: Dict[Tuple[int, int, int], List[DynamicInstruction]] = {}
            for rec in self.records:
                groups.setdefault((rec.tb_index, rec.pc, rec.occurrence), []).append(rec)
            cached = self._tb_groups = (len(self.records), groups)
        return iter(cached[1].items())

    def grouped_by_grid(self) -> Iterator[Tuple[Tuple[int, int], List[DynamicInstruction]]]:
        """Group records by (pc, occurrence) across the entire grid."""
        groups: Dict[Tuple[int, int], List[DynamicInstruction]] = {}
        for rec in self.records:
            groups.setdefault((rec.pc, rec.occurrence), []).append(rec)
        return iter(groups.items())
