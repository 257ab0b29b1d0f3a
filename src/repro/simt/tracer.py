"""Execution tracing for the redundancy limit studies.

The limit studies (Figures 1 and 2), the DAC-IDEAL oracle profile and
the marking-soundness audit all count *TB instances*: one dynamic
instance of an instruction in a threadblock, keyed ``(tb, pc,
occurrence)``, with every warp's execution of it.  An instance is
TB-redundant when every warp of the TB ran it undiverged with the same
output vector (Section 2).  :class:`ExecutionTrace` is the table of
instances: one :class:`TBInstance` each, never one object per warp.

Each output vector is judged by its compact :class:`ValueSummary`:

- ``uniform``  — every lane holds the same scalar; summarised by value;
- ``affine``   — lanes form ``base + stride * lane`` with stride != 0;
  summarised by ``(base, stride)``;
- ``unstructured`` — anything else; summarised by a digest of the raw
  lane bytes.

Two warps executed the same redundant instruction iff their summaries
compare equal — exactly the paper's definition: affine redundancy is a
repeated ``(base, stride)`` pair, unstructured redundancy is equal vector
values "with no discernible pattern" (Section 2).

The tracer works in bulk.  :meth:`Tracer.record_group` holds each output
vector and the warps' masks in a pending batch, with one instance key
per run of warps at one occurrence; when every lane of every warp ran,
it holds the group's ``[warps, lanes]`` result block whole.
:meth:`Tracer.record` is :meth:`~Tracer.record_group` for one warp.  When
the batch reaches :data:`BATCH_ROWS` rows, and whenever
:attr:`Tracer.trace` is read, the flush summarizes every row with 2-D
numpy reductions and reduces the rows per instance: row counts,
undiverged uniform and affine counts, divergence, and a compare of each
row's summary against the first row of its instance.  Rows that reach an
instance in a later flush fold into what it stores, and its class is
set again, so a read mid-run stays exact.  Holding the vectors is safe
only because register vectors and SIMT masks are never mutated in place
(DESIGN §4d).  :meth:`ValueSummary.of` is the per-vector reference the
bulk path matches bit for bit.
"""

from __future__ import annotations

import enum
import functools
import zlib
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

#: Summary pattern kinds.
UNIFORM = "uniform"
AFFINE = "affine"
UNSTRUCTURED = "unstructured"
NONE = "none"          # instruction produced no register value

#: The kinds a row's summary code names: ``KINDS[code]``.
KINDS = (NONE, UNIFORM, AFFINE, UNSTRUCTURED)

#: Rows a tracer holds before it summarizes them, about 0.5 MB of
#: vectors.  On the 13 Table-1 apps at small (2-vCPU Xeon host), 2048
#: traced about 10 % faster than 512 for 0.7 MB more peak RSS (44.3
#: against 43.6 MB); 4096 gained little more for 2.5 MB.
BATCH_ROWS = 2048


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


def value_kind(values: np.ndarray) -> str:
    """``ValueSummary.of(values).kind``, without the summary's float
    conversions or the digest of an unstructured vector."""
    if values.dtype.kind == "b":
        values = values.astype(np.int64)
    if (values == values[0]).all():
        return UNIFORM
    diffs = values[1:] - values[:-1]
    if diffs.size and (diffs == diffs[0]).all():
        return AFFINE
    return UNSTRUCTURED


#: ``ValueSummary._make`` without its per-call length check: every
#: tuple built here has the four fields.
_summary = functools.partial(tuple.__new__, ValueSummary)

#: Per-row summary fields, index for index: kind codes (``KINDS``),
#: bases, strides and digests.
RowSummaries = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _no_summaries(n: int) -> RowSummaries:
    """The fields of ``n`` rows of no value."""
    return np.zeros(n, dtype=np.int8), np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)


def _summarize_block(block: np.ndarray) -> RowSummaries:
    """The fields of ``ValueSummary.of(row)`` for each row of a 2-D block
    whose rows are at least one lane long.

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
    digests = np.zeros(n, dtype=np.int64)
    # A lone lane lands here only as NaN, which equals nothing.
    unstructured = np.flatnonzero(~structured).tolist()
    if unstructured:
        digests[unstructured] = list(map(zlib.crc32, block[unstructured]))
    return kinds, bases, strides, digests


def summarize_rows(rows: Sequence[Optional[np.ndarray]]) -> RowSummaries:
    """The fields of ``ValueSummary.of(row)`` for each of ``rows``,
    computed in bulk; a ``None`` row (no register written) has kind
    ``none``.

    Rows of one dtype and length are stacked and summarized as one
    block.  A row that is empty or not 1-D is no warp vector and raises
    ``ValueError``.
    """
    fields = _no_summaries(len(rows))
    groups: Dict[Tuple[np.dtype, Tuple[int, ...]], List[int]] = {}
    for i, row in enumerate(rows):
        if row is not None:
            groups.setdefault((row.dtype, row.shape), []).append(i)
    for (dtype, shape), index in groups.items():
        if len(shape) != 1 or not shape[0]:
            raise ValueError(f"a row of shape {shape} is no warp vector")
        block = np.array([rows[i] for i in index], dtype=dtype)
        for column, values in zip(fields, _summarize_block(block)):
            column[index] = values
    return fields


class RedundancyClass(enum.Enum):
    """Dynamic classification of one TB instance: a redundant one's
    value is its shared summary's kind."""

    UNIFORM = UNIFORM
    AFFINE = AFFINE
    UNSTRUCTURED = UNSTRUCTURED
    NON_REDUNDANT = "non-redundant"


#: The class of a TB-redundant instance, by its shared summary's kind
#: code: one that wrote no register is not redundant.
_CLASSES = (RedundancyClass.NON_REDUNDANT,) + tuple(RedundancyClass(k) for k in KINDS[1:])

#: ``(tb, pc, occurrence)``: the key of a TB instance.
InstanceKey = Tuple[int, int, int]


class TBInstance(NamedTuple):
    """One dynamic instance of an instruction in a threadblock, as the
    warps that ran it so far left it.

    ``redundancy`` is redundant, with ``summary``'s kind, exactly when
    every warp of the TB ran it (``warps`` of the trace's
    ``warps_per_block``), none diverged and every warp's summary equals
    ``summary``, which is not of kind ``none`` ("instructions executed
    in diverged control flow are considered non-redundant", Figure 2
    caption).
    """

    #: the first warp's summary
    summary: ValueSummary
    #: the warps that ran it
    warps: int
    #: the warps that ran it undiverged to a uniform (affine) vector
    uniform_warps: int
    affine_warps: int
    #: whether some warp ran it under SIMD divergence
    divergent: bool
    #: whether every warp's summary equals ``summary``
    same: bool
    redundancy: RedundancyClass

    def fold(self, later: "TBInstance", warps_per_block: int) -> "TBInstance":
        """This instance with the warps that ran it in ``later``, and
        classified again."""
        warps = self.warps + later.warps
        divergent = self.divergent or later.divergent
        same = self.same and later.same and later.summary == self.summary
        if warps == warps_per_block and same and not divergent:
            redundancy = _CLASSES[KINDS.index(self.summary.kind)]
        else:
            redundancy = RedundancyClass.NON_REDUNDANT
        return _instance((
            self.summary, warps, self.uniform_warps + later.uniform_warps,
            self.affine_warps + later.affine_warps, divergent, same, redundancy,
        ))


#: ``TBInstance._make`` without its per-call length check.
_instance = functools.partial(tuple.__new__, TBInstance)


class ExecutionTrace:
    """One functional kernel run, as a table of its TB instances."""

    def __init__(self) -> None:
        self.warps_per_block: int = 0
        self.num_blocks: int = 0
        #: every TB instance, in the order its first warp was recorded;
        #: callers must not mutate the table
        self.instances: Dict[InstanceKey, TBInstance] = {}

    def __len__(self) -> int:
        """The number of warp-instructions recorded."""
        return sum(instance.warps for instance in self.instances.values())


class Tracer:
    """Records executed instructions into an :class:`ExecutionTrace`."""

    def __init__(self) -> None:
        self._trace = ExecutionTrace()
        #: ``(tb, pc) -> executions so far``: one count per warp of the
        #: TB, or one count for all while every warp ran it equally often
        self._occurrence: Dict[Tuple[int, int], Union[int, List[int]]] = {}
        #: the rows not yet summarized: one instance key and row count
        #: per run of warps at one occurrence, in record order
        self._keys: List[InstanceKey] = []
        self._runs: List[int] = []
        self._rows = 0
        #: what the summaries and divergence flags of rows with exec
        #: masks are made from: the row's index in the batch, its
        #: destination vector and the warp's hardware and exec masks,
        #: index for index
        self._row_at: List[int] = []
        self._values: List[Optional[np.ndarray]] = []
        self._hw_masks: List[np.ndarray] = []
        self._exec_masks: List[np.ndarray] = []
        #: group rows on which every lane ran: ``(index of the first in
        #: the batch, destination block)``
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
        keys, runs = self._keys, self._runs
        site = (tb_index, pc)
        counts = self._occurrence.get(site, 0)
        if type(counts) is int and len(warps) == len(tb.warps):
            # Every warp of the TB, each at the same occurrence: one run.
            self._occurrence[site] = counts + 1
            keys.append((tb_index, pc, counts))
            runs.append(len(warps))
        else:
            if type(counts) is int:
                counts = self._occurrence[site] = [counts] * len(tb.warps)
            last = -1
            for warp in warps:
                warp_id = warp.warp_id
                occ = counts[warp_id]
                counts[warp_id] = occ + 1
                if occ == last:
                    runs[-1] += 1
                else:
                    keys.append((tb_index, pc, occ))
                    runs.append(1)
                    last = occ
        start = self._rows
        self._rows = end = start + len(warps)
        if exec_masks is None:
            # No lane idle and none dead: not divergent, and nothing to trim.
            if values is not None:
                self._blocks.append((start, values))
        else:
            self._row_at.extend(range(start, end))
            self._values.extend(values if values is not None else [None] * len(warps))
            self._hw_masks.extend([w.hw_mask for w in warps])
            self._exec_masks.extend(exec_masks)
        if end >= BATCH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Summarize the pending batch and fold it into the trace."""
        n = self._rows
        if not n:
            return
        fields = _no_summaries(n)
        divergent = np.zeros(n, dtype=bool)
        chunks: Dict[Tuple[np.dtype, int], List[Tuple[int, np.ndarray]]] = {}
        for start, block in self._blocks:
            chunks.setdefault((block.dtype, block.shape[1]), []).append((start, block))
        for pieces in chunks.values():
            block = np.concatenate([b for _, b in pieces])
            # each row's index in the batch: its block's start plus its
            # index in the block
            sizes = np.array([len(b) for _, b in pieces])
            starts = np.array([s for s, _ in pieces]) - (np.cumsum(sizes) - sizes)
            at = np.repeat(starts, sizes) + np.arange(len(block))
            for column, values in zip(fields, _summarize_block(block)):
                column[at] = values
        if self._row_at:
            at = np.array(self._row_at)
            rows, hws = self._values, self._hw_masks
            hw = np.array(hws)
            divergent[at] = (hw & ~np.array(self._exec_masks)).any(axis=1)
            for i in np.flatnonzero(~hw.all(axis=1)).tolist():
                # A partial warp's dead lanes hold whatever the ALU computed
                # over stale inputs; they are never architecturally written,
                # so they must not break uniformity (or fabricate it).
                if rows[i] is not None and rows[i].shape == hws[i].shape:
                    rows[i] = rows[i][hws[i]]
            for column, values in zip(fields, summarize_rows(rows)):
                column[at] = values
        self._fold(fields, divergent)
        self._keys, self._runs, self._rows, self._row_at, self._blocks = [], [], 0, [], []
        self._values, self._hw_masks, self._exec_masks = [], [], []

    def _fold(self, fields: RowSummaries, divergent: np.ndarray) -> None:
        """Reduce the batch's rows per instance and fold each instance's
        share into the trace."""
        keys, runs = self._keys, self._runs
        local: Dict[InstanceKey, int] = {}  # the batch's instances, in order
        runs_of, firsts, row = [], [], 0
        for key, run in zip(keys, runs):
            j = local.get(key)
            if j is None:
                j = local[key] = len(firsts)
                firsts.append(row)
            runs_of.append(j)
            row += run
        m = len(firsts)
        ids = np.repeat(runs_of, runs)
        kinds, bases, strides, digests = fields
        first = np.asarray(firsts)[ids]  # each row's instance's first row
        differs = ~((kinds == kinds[first]) & (bases == bases[first])
                    & (strides == strides[first]) & (digests == digests[first]))
        undiverged = ~divergent
        counts = np.bincount(ids, minlength=m)
        diverged = np.bincount(ids[divergent], minlength=m).astype(bool)
        same = np.bincount(ids[differs], minlength=m) == 0
        trace = self._trace
        instances, warps_per_block = trace.instances, trace.warps_per_block
        head_kinds = kinds[firsts]
        redundant = (counts == warps_per_block) & ~diverged & same
        shares = map(_instance, zip(
            map(_summary, zip(
                map(KINDS.__getitem__, head_kinds.tolist()),
                bases[firsts].tolist(), strides[firsts].tolist(), digests[firsts].tolist(),
            )),
            counts.tolist(),
            np.bincount(ids[undiverged & (kinds == 1)], minlength=m).tolist(),
            np.bincount(ids[undiverged & (kinds == 2)], minlength=m).tolist(),
            diverged.tolist(),
            same.tolist(),
            map(_CLASSES.__getitem__, np.where(redundant, head_kinds, 0).tolist()),
        ))
        for key, share in zip(local, shares):
            instance = instances.get(key)
            instances[key] = share if instance is None else instance.fold(share, warps_per_block)
