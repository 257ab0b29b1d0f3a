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
read.  :meth:`Tracer.record_group` takes a lock-stepped group's records
in one call and, when every lane of every warp ran, holds its
``[warps, lanes]`` result block whole.  Holding the vectors is safe only
because register vectors and SIMT masks are never mutated in place
(DESIGN §4d).
:meth:`ValueSummary.of` is the per-vector reference the bulk path
matches bit for bit.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from itertools import chain
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


#: The kinds :func:`_summarize_block` codes as 1 (uniform), 2 (affine)
#: and 3 (unstructured).
_KINDS = (NONE, UNIFORM, AFFINE, UNSTRUCTURED)

#: ``ValueSummary._make`` without its per-call length check: every
#: tuple built here has the four fields.
_summary = functools.partial(tuple.__new__, ValueSummary)


def _summarize_block(block: np.ndarray) -> List[ValueSummary]:
    """``[ValueSummary.of(row) for row in block]`` for a 2-D block whose
    rows are at least one lane long.

    Uniform and affine rows are found with 2-D reductions; crc32 runs
    only on the unstructured ones.
    """
    if block.dtype.kind == "b":
        block = block.astype(np.int64)
    n, lanes = block.shape
    first = block[:, 0]
    structured = (block == first[:, None]).all(axis=1)
    kinds = np.where(structured, 1, 3)
    strides = np.zeros(n)
    if lanes > 1:
        with np.errstate(invalid="ignore", over="ignore"):
            diffs = block[:, 1:] - block[:, :-1]
        affine = (diffs == diffs[:, :1]).all(axis=1) & ~structured
        kinds[affine] = 2
        strides[affine] = diffs[affine, 0]
        structured |= affine
    bases = np.zeros(n)
    bases[structured] = first[structured]
    digests = [0] * n
    # A lone lane lands here only as NaN, which equals nothing.
    unstructured = np.flatnonzero(~structured).tolist()
    if unstructured:
        raw = memoryview(np.ascontiguousarray(block)).cast("B")
        width = lanes * block.itemsize
        for j in unstructured:
            digests[j] = zlib.crc32(raw[j * width:(j + 1) * width])
    return list(map(_summary, zip(
        map(_KINDS.__getitem__, kinds.tolist()), bases.tolist(), strides.tolist(), digests,
    )))


def summarize_rows(rows: Sequence[Optional[np.ndarray]]) -> List[ValueSummary]:
    """``[ValueSummary.of(row) for row in rows]``, computed in bulk.

    Rows of one dtype and length are stacked and summarized as one
    block.  A ``None`` row (no register written) summarizes as
    ``none``; a row that is empty or not 1-D goes through
    :meth:`ValueSummary.of`.
    """
    out = [_NO_SUMMARY] * len(rows)  # one shared object for every record of no value
    groups: Dict[Tuple[np.dtype, Tuple[int, ...]], List[int]] = {}
    for i, row in enumerate(rows):
        if row is not None:
            groups.setdefault((row.dtype, row.shape), []).append(i)
    for (dtype, shape), index in groups.items():
        if len(shape) != 1 or not shape[0]:
            for i in index:
                out[i] = ValueSummary.of(rows[i])
            continue
        block = np.array([rows[i] for i in index], dtype=dtype)
        for i, summary in zip(index, _summarize_block(block)):
            out[i] = summary
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
        #: records not yet summarized
        self._pending: List[DynamicInstruction] = []
        #: what the summaries and divergence flags of one-warp records are
        #: made from: the record's index in the batch, its destination
        #: vector and the warp's hardware and exec masks, index for index
        self._row_at: List[int] = []
        self._values: List[Optional[np.ndarray]] = []
        self._hw_masks: List[np.ndarray] = []
        self._exec_masks: List[np.ndarray] = []
        #: group records on which every lane ran: ``(index of the first
        #: in the batch, destination block)``
        self._blocks: List[Tuple[int, np.ndarray]] = []

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
        pending = self._pending
        self._row_at.append(len(pending))
        # The summary and the divergence flag are set when the batch is flushed.
        pending.append(DynamicInstruction(
            tb.tb_index, warp.warp_id, inst.pc, occ, self._opclass(inst), _NO_SUMMARY, False
        ))
        self._values.append(result.dest_value)
        self._hw_masks.append(warp.hw_mask)
        self._exec_masks.append(result.exec_mask)
        if len(pending) >= BATCH_ROWS:
            self._flush()

    def record_group(self, tb, warps, inst, values, exec_masks) -> None:
        """:meth:`record` for each of ``warps`` in turn, all executing
        ``inst``: ``values`` holds one destination row per warp (None: no
        register written) and ``exec_masks`` one exec mask per warp, or is
        None when every lane of every warp ran."""
        tb_index, pc = tb.tb_index, inst.pc
        opclass = self._opclass(inst)
        occurrence = self._occurrence
        pending = self._pending
        start = len(pending)
        for warp in warps:
            key = (tb_index, warp.warp_id, pc)
            occ = occurrence.get(key, 0)
            occurrence[key] = occ + 1
            pending.append(DynamicInstruction(
                tb_index, warp.warp_id, pc, occ, opclass, _NO_SUMMARY, False
            ))
        if exec_masks is None:
            # No lane idle and none dead: not divergent, and nothing to trim.
            if values is not None:
                self._blocks.append((start, values))
        else:
            self._row_at.extend(range(start, len(pending)))
            self._values.extend(values if values is not None else [None] * len(warps))
            self._hw_masks.extend([w.hw_mask for w in warps])
            self._exec_masks.extend(exec_masks)
        if len(pending) >= BATCH_ROWS:
            self._flush()

    def _opclass(self, inst: Instruction) -> str:
        opclass = self._opclasses.get(id(inst))
        if opclass is None:
            opclass = self._opclasses[id(inst)] = (inst, _opclass(inst))
        return opclass[1]

    def _flush(self) -> None:
        """Summarize the pending batch and append it to the trace."""
        pending = self._pending
        if not pending:
            return
        rows, hws = self._values, self._hw_masks
        if rows:
            hw = np.array(hws)
            divergent = (hw & ~np.array(self._exec_masks)).any(axis=1).tolist()
            for i in np.flatnonzero(~hw.all(axis=1)).tolist():
                # A partial warp's dead lanes hold whatever the ALU computed
                # over stale inputs; they are never architecturally written,
                # so they must not break uniformity (or fabricate it).
                if rows[i] is not None and rows[i].shape == hws[i].shape:
                    rows[i] = rows[i][hws[i]]
            for at, summary, div in zip(self._row_at, summarize_rows(rows), divergent):
                rec = pending[at]
                rec.summary = summary
                rec.divergent = div
        chunks: Dict[Tuple[np.dtype, int], List[Tuple[int, np.ndarray]]] = {}
        for start, block in self._blocks:
            chunks.setdefault((block.dtype, block.shape[1]), []).append((start, block))
        for same in chunks.values():
            at = chain.from_iterable(range(start, start + len(b)) for start, b in same)
            for i, summary in zip(at, _summarize_block(np.concatenate([b for _, b in same]))):
                pending[i].summary = summary
        self._trace.records.extend(pending)
        self._pending, self._row_at, self._blocks = [], [], []
        self._values, self._hw_masks, self._exec_masks = [], [], []


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
