"""Typed inter-stage buffers of the staged SM pipeline.

The stage objects in :mod:`repro.timing.stages` communicate only through
the structures defined here:

- :class:`IBufferEntry` / :class:`IBuffer` — the per-warp instruction
  buffer between fetch/decode and issue.  The buffer maintains its own
  occupancy counters (real entries vs zero-cost entries) and mirrors the
  zero-cost population into a pipeline-wide :class:`ZeroCostLedger` so
  the decode-skip drain can early-out in O(1).
- :class:`IssueSlot` — one selected instruction travelling from the
  issue stage through operand collection into execute.
- :class:`WritebackQueue` — the latency-ordered queue of in-flight
  instructions between execute and writeback (replaces the ad-hoc heap
  the monolithic core carried).
- :class:`WakeQueue` — the warps woken since a frontend's last per-cycle
  pass (DARSIE's skip engine, DAC-IDEAL's affine stream), handed out in
  the TB-then-warp order that pass visits them in.

Every structure is deliberately dumb: it holds state and keeps counters
consistent, but policy (what to push, when to pop) lives in the stages.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.isa.instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.timing.core import WarpRuntime


@dataclass
class IBufferEntry:
    """One decoded instruction waiting to issue."""

    inst: Instruction
    is_leader: bool = False
    #: operand values captured at fetch time (renamed sources)
    overrides: Optional[Dict[str, Any]] = None
    #: DAC-IDEAL zero-cost instruction (drains outside issue bandwidth,
    #: executing functionally when it reaches the head of the queue)
    free: bool = False
    #: DARSIE skip token: the instruction was eliminated before fetch —
    #: the token only advances the architectural PC, in program order,
    #: when it reaches the head of the queue
    skip_token: bool = False

    @property
    def zero_cost(self) -> bool:
        """Entries that were never fetched and occupy no real slot."""
        return self.free or self.skip_token


class ZeroCostLedger:
    """Pipeline-wide count of queued zero-cost I-buffer entries.

    The decode-skip stage drains free entries and skip tokens outside
    issue bandwidth; this ledger lets it skip the per-warp scan entirely
    on the (common) cycles where no zero-cost entry exists anywhere.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total: int = 0


class IBuffer:
    """A warp's instruction buffer with incremental occupancy counters.

    ``buffered`` counts entries that occupy real I-buffer slots (counted
    against :attr:`~repro.timing.config.GPUConfig.ibuffer_entries`);
    ``zero_cost`` counts free entries and skip tokens, which were never
    fetched.  All mutation goes through :meth:`push` / :meth:`pop` /
    :meth:`clear` so the counters (and the shared ledger) can never
    drift from the queue contents.
    """

    __slots__ = ("entries", "buffered", "zero_cost", "_ledger")

    def __init__(self, ledger: ZeroCostLedger) -> None:
        #: underlying queue — read-only for peeking; mutate via methods
        self.entries: Deque[IBufferEntry] = deque()
        self.buffered: int = 0
        self.zero_cost: int = 0
        self._ledger = ledger

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __getitem__(self, index: int) -> IBufferEntry:
        return self.entries[index]

    def push(self, entry: IBufferEntry) -> None:
        self.entries.append(entry)
        if entry.free or entry.skip_token:
            self.zero_cost += 1
            self._ledger.total += 1
        else:
            self.buffered += 1

    def pop(self) -> IBufferEntry:
        entry = self.entries.popleft()
        if entry.free or entry.skip_token:
            self.zero_cost -= 1
            self._ledger.total -= 1
        else:
            self.buffered -= 1
        return entry

    def clear(self) -> None:
        if self.zero_cost:
            self._ledger.total -= self.zero_cost
        self.entries.clear()
        self.buffered = 0
        self.zero_cost = 0

    def detach(self) -> None:
        """Remove this buffer's zero-cost population from the shared
        ledger (the owning warp's TB left the SM)."""
        if self.zero_cost:
            self._ledger.total -= self.zero_cost
            self.zero_cost = 0


@dataclass(frozen=True)
class IssueSlot:
    """One instruction selected by the issue stage, on its way through
    operand collection into execute (same-cycle, fully bypassed)."""

    warp: "WarpRuntime"
    entry: IBufferEntry
    cycle: int


#: one in-flight instruction: (ready cycle, seq, warp, inst, meta)
InflightItem = Tuple[int, int, "WarpRuntime", Instruction, Dict[str, Any]]


@dataclass
class WritebackQueue:
    """Latency-ordered in-flight instructions awaiting writeback.

    The execute stage :meth:`schedule`\\ s each instruction with its
    completion cycle; the writeback stage :meth:`pop_ready`\\ s the ones
    due.  ``seq`` breaks ready-cycle ties in program (issue) order, so
    writeback order — and with it LeaderWB visibility — is deterministic.
    """

    _heap: List[InflightItem] = field(default_factory=list)
    _seq: int = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(
        self, ready: int, wrt: "WarpRuntime", inst: Instruction, meta: Dict[str, Any]
    ) -> None:
        self._seq += 1
        wrt.inflight += 1
        heapq.heappush(self._heap, (ready, self._seq, wrt, inst, meta))

    def pending(self) -> List[InflightItem]:
        """Snapshot of the in-flight instructions (oracle/debug aid)."""
        return list(self._heap)

    def pop_ready(self, cycle: int) -> Optional[InflightItem]:
        """The next in-flight instruction due at or before ``cycle``."""
        if self._heap and self._heap[0][0] <= cycle:
            return heapq.heappop(self._heap)
        return None

    def next_ready(self) -> Optional[int]:
        """Cycle at which the earliest in-flight instruction completes."""
        return self._heap[0][0] if self._heap else None


class WakeQueue:
    """Warps due a visit by a frontend's per-cycle pass.

    :meth:`WarpRuntime.wake <repro.timing.core.WarpRuntime.wake>` queues
    a warp whenever something its pass outcome depends on changes; the
    frontend drains the queue once per cycle instead of walking every
    resident warp.  :meth:`drain` hands warps out in age order, which is
    the TB-then-warp order of ``SMCore.tbs`` (ages are assigned in launch
    order).  A warp queued *during* a pass joins it when it comes later
    in age order than the warp being visited, exactly as a full walk
    would reach it later in the same cycle; any other waits for the
    next pass.
    """

    __slots__ = ("_pending", "_heap", "_cursor")

    def __init__(self) -> None:
        self._pending: List["WarpRuntime"] = []
        self._heap: List[Tuple[int, "WarpRuntime"]] = []
        #: age of the warp being visited (infinite between passes)
        self._cursor: float = float("inf")

    def revisit(self, wrt: "WarpRuntime") -> None:
        """Queue ``wrt`` unless it is already due a visit."""
        if wrt.woken:
            return
        wrt.woken = True
        if wrt.age > self._cursor:
            heapq.heappush(self._heap, (wrt.age, wrt))
        else:
            self._pending.append(wrt)

    def drain(self) -> Iterator["WarpRuntime"]:
        """Yield the queued warps in age order, each marked visited as
        it is handed out."""
        heap = self._heap = [(w.age, w) for w in self._pending]
        self._pending = []
        heapq.heapify(heap)
        try:
            while heap:
                age, wrt = heapq.heappop(heap)
                self._cursor = age
                wrt.woken = False
                yield wrt
        finally:
            self._cursor = float("inf")
