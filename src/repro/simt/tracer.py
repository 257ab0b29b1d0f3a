"""Execution tracing for the redundancy limit studies.

The limit studies (Figures 1 and 2), the DAC-IDEAL oracle profile and
the marking-soundness audit all count *TB instances*: one dynamic
instance of an instruction in a threadblock, keyed ``(tb, pc,
occurrence)``, with every warp's execution of it.  An instance is
TB-redundant when every warp of the TB ran it undiverged with the same
output vector (Section 2); :class:`ExecutionTrace` is the table of
instances, each with its :class:`RedundancyClass`.

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

Summaries are made in bulk, not one vector at a time:
:meth:`Tracer.record_group` holds each output vector and the warps'
masks in a pending batch, which :func:`summarize_rows` summarizes with
2-D numpy reductions when it reaches :data:`BATCH_ROWS` rows and
whenever :attr:`Tracer.trace` is read.  When every lane of every warp
ran, it holds the group's ``[warps, lanes]`` result block whole.
:meth:`Tracer.record` is :meth:`~Tracer.record_group` for one warp.  A
flush files each summarized record under its instance, and the trace
classifies an instance (:func:`classify_group`) when it is read after
the instance gained records, so a run read once classifies each
instance once.  Holding the vectors is safe only because register
vectors and SIMT masks are never mutated in place (DESIGN §4d).
:meth:`ValueSummary.of` is the per-vector reference the bulk path
matches bit for bit.
"""

from __future__ import annotations

import enum
import functools
import zlib
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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


class RedundancyClass(enum.Enum):
    """Dynamic classification of one TB instance: a redundant one's
    value is its shared summary's kind."""

    UNIFORM = UNIFORM
    AFFINE = AFFINE
    UNSTRUCTURED = UNSTRUCTURED
    NON_REDUNDANT = "non-redundant"


class DynamicInstruction(NamedTuple):
    """One warp's execution of a TB instance."""

    warp_id: int
    summary: ValueSummary
    divergent: bool


#: ``DynamicInstruction._make`` without its per-call length check.
_record = functools.partial(tuple.__new__, DynamicInstruction)


def classify_group(
    records: Sequence[DynamicInstruction], expected_warps: int
) -> RedundancyClass:
    """Classify one group of warp executions of an instruction instance.

    A group is redundant only when *every* one of ``expected_warps``
    warps executed it, none with SIMD divergence ("instructions
    executed in diverged control flow are considered non-redundant",
    Figure 2 caption), and all produced identical value summaries.  The
    sub-class follows the shared summary's pattern kind.
    """
    if len(records) != expected_warps:
        return RedundancyClass.NON_REDUNDANT
    first = records[0].summary
    if first.kind == NONE:
        return RedundancyClass.NON_REDUNDANT
    for rec in records:
        if rec.divergent or rec.summary != first:
            return RedundancyClass.NON_REDUNDANT
    return RedundancyClass(first.kind)


#: ``(tb, pc, occurrence)``: the key of a TB instance.
InstanceKey = Tuple[int, int, int]


class TBInstance:
    """One dynamic instance of an instruction in a threadblock: the
    records of the warps that executed it, in execution order, and its
    class."""

    __slots__ = ("records", "redundancy")

    def __init__(self) -> None:
        self.records: List[DynamicInstruction] = []
        #: None from when a record arrives until the trace is next read
        self.redundancy: Optional[RedundancyClass] = None


class ExecutionTrace:
    """All dynamic instructions of one functional kernel run, filed by
    TB instance."""

    def __init__(self) -> None:
        self.warps_per_block: int = 0
        self.num_blocks: int = 0
        self._instances: Dict[InstanceKey, TBInstance] = {}
        #: the instances whose ``redundancy`` is None
        self._unclassified: List[TBInstance] = []

    @property
    def instances(self) -> Dict[InstanceKey, TBInstance]:
        """Every TB instance, in the order its first record was filed,
        each classified against ``warps_per_block`` warps.  Callers must
        not mutate the table."""
        if self._unclassified:
            warps = self.warps_per_block
            for instance in self._unclassified:
                instance.redundancy = classify_group(instance.records, warps)
            self._unclassified = []
        return self._instances

    def __len__(self) -> int:
        """The number of warp-instructions filed."""
        return sum(len(instance.records) for instance in self._instances.values())

    def file(self, keys: Iterable[InstanceKey], records: Iterable[DynamicInstruction]) -> None:
        """File each record under its instance's key, index for index.

        Consecutive records under one key object cost one table lookup.
        """
        instances = self._instances
        unclassified = self._unclassified
        last = instance = None
        for key, record in zip(keys, records):
            if key is not last:
                last = key
                instance = instances.get(key)
                if instance is None:
                    instance = instances[key] = TBInstance()
                    unclassified.append(instance)
                elif instance.redundancy is not None:
                    instance.redundancy = None
                    unclassified.append(instance)
            instance.records.append(record)


class Tracer:
    """Records executed instructions into an :class:`ExecutionTrace`."""

    def __init__(self) -> None:
        self._trace = ExecutionTrace()
        #: ``(tb, pc) -> executions so far``, one count per warp of the TB
        self._occurrence: Dict[Tuple[int, int], List[int]] = {}
        #: records not yet summarized: each one's instance key and warp
        self._keys: List[InstanceKey] = []
        self._warp_ids: List[int] = []
        #: what the summaries and divergence flags of records with exec
        #: masks are made from: the record's index in the batch, its
        #: destination vector and the warp's hardware and exec masks,
        #: index for index
        self._row_at: List[int] = []
        self._values: List[Optional[np.ndarray]] = []
        self._hw_masks: List[np.ndarray] = []
        self._exec_masks: List[np.ndarray] = []
        #: group records on which every lane ran: ``(index of the first
        #: in the batch, destination block)``
        self._blocks: List[Tuple[int, np.ndarray]] = []

    @property
    def trace(self) -> ExecutionTrace:
        """Every instruction recorded so far, summarized and filed."""
        self._flush()
        return self._trace

    def begin_block(self, tb) -> None:
        trace = self._trace
        trace.warps_per_block = max(trace.warps_per_block, len(tb.warps))
        trace.num_blocks = max(trace.num_blocks, tb.tb_index + 1)

    def record(self, tb, warp, result) -> None:
        """:meth:`record_group` for one warp."""
        self.record_group(tb, (warp,), result.inst, (result.dest_value,), (result.exec_mask,))

    def record_group(self, tb, warps, inst, values, exec_masks) -> None:
        """Record each of ``warps`` executing ``inst``, in turn: ``values``
        holds one destination row per warp (None: no register written)
        and ``exec_masks`` one exec mask per warp, or is None when every
        lane of every warp ran."""
        tb_index, pc = tb.tb_index, inst.pc
        counts = self._occurrence.get((tb_index, pc))
        if counts is None:
            counts = self._occurrence[(tb_index, pc)] = [0] * len(tb.warps)
        keys, warp_ids = self._keys, self._warp_ids
        start = len(keys)
        key = None
        for warp in warps:
            warp_id = warp.warp_id
            occ = counts[warp_id]
            counts[warp_id] = occ + 1
            if key is None or key[2] != occ:
                key = (tb_index, pc, occ)
            keys.append(key)
            warp_ids.append(warp_id)
        if exec_masks is None:
            # No lane idle and none dead: not divergent, and nothing to trim.
            if values is not None:
                self._blocks.append((start, values))
        else:
            self._row_at.extend(range(start, len(keys)))
            self._values.extend(values if values is not None else [None] * len(warps))
            self._hw_masks.extend([w.hw_mask for w in warps])
            self._exec_masks.extend(exec_masks)
        if len(keys) >= BATCH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Summarize the pending batch and file it in the trace."""
        keys = self._keys
        if not keys:
            return
        summaries = [_NO_SUMMARY] * len(keys)
        divergent = [False] * len(keys)
        rows, hws = self._values, self._hw_masks
        if rows:
            hw = np.array(hws)
            flags = (hw & ~np.array(self._exec_masks)).any(axis=1).tolist()
            for i in np.flatnonzero(~hw.all(axis=1)).tolist():
                # A partial warp's dead lanes hold whatever the ALU computed
                # over stale inputs; they are never architecturally written,
                # so they must not break uniformity (or fabricate it).
                if rows[i] is not None and rows[i].shape == hws[i].shape:
                    rows[i] = rows[i][hws[i]]
            for at, summary, flag in zip(self._row_at, summarize_rows(rows), flags):
                summaries[at] = summary
                divergent[at] = flag
        chunks: Dict[Tuple[np.dtype, int], List[Tuple[int, np.ndarray]]] = {}
        for start, block in self._blocks:
            chunks.setdefault((block.dtype, block.shape[1]), []).append((start, block))
        for same in chunks.values():
            at = chain.from_iterable(range(start, start + len(b)) for start, b in same)
            for i, summary in zip(at, _summarize_block(np.concatenate([b for _, b in same]))):
                summaries[i] = summary
        self._trace.file(keys, map(_record, zip(self._warp_ids, summaries, divergent)))
        self._keys, self._warp_ids, self._row_at, self._blocks = [], [], [], []
        self._values, self._hw_masks, self._exec_masks = [], [], []
