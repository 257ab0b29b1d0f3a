"""Typed inter-stage buffers of the staged SM pipeline.

The stage objects in :mod:`repro.timing.stages` communicate only through
the structures defined here:

- :class:`IBufferEntry` — the one record an instruction carries from
  fetch to writeback: the I-buffer holds it, issue hands it to
  execute, execute stores its
  :class:`~repro.simt.executor.StepResult` on it, and the writeback
  queue holds it until :meth:`Frontend.on_writeback
  <repro.timing.frontend.Frontend.on_writeback>` receives it.
- :class:`IBuffer` — the per-warp instruction buffer between
  fetch/decode and issue.  It maintains its own occupancy counters (real
  entries vs zero-cost entries) and files its warp in a pipeline-wide
  :class:`ZeroCostLedger` while it holds a zero-cost entry, so the
  decode-skip drain visits only those warps.
- :class:`WritebackQueue` — the latency-ordered queue of in-flight
  instructions between execute and writeback: a calendar of per-cycle
  buckets.
- :class:`WakeQueue` — the warps woken since a frontend's last per-cycle
  pass (DARSIE's skip engine, DAC-IDEAL's affine stream), handed out in
  the TB-then-warp order that pass visits them in.

Every structure is deliberately dumb: it holds state and keeps counters
consistent, but policy (what to push, when to pop) lives in the stages.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.isa.instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.simt.executor import StepResult
    from repro.timing.core import WarpRuntime


class IBufferEntry:
    """One instruction on its way from fetch to writeback.

    Fetch (or a frontend's zero-cost push) creates the entry; it waits
    in the warp's :class:`IBuffer`, issue passes it to execute within
    one cycle, execute stores the
    functional outcome in :attr:`result`, and the writeback queue holds
    it until writeback.  Hand-written ``__slots__``: one is built per
    fetched instruction.
    """

    __slots__ = ("inst", "is_leader", "overrides", "free", "skip_token", "result")

    def __init__(
        self,
        inst: Instruction,
        is_leader: bool = False,
        overrides: Optional[Dict[str, Any]] = None,
        free: bool = False,
        skip_token: bool = False,
    ) -> None:
        self.inst = inst
        #: fetched as the DARSIE skip-table leader of its PC
        self.is_leader = is_leader
        #: operand values captured at fetch time (renamed sources)
        self.overrides = overrides
        #: DAC-IDEAL zero-cost instruction (drains outside issue bandwidth,
        #: executing functionally when it reaches the head of the queue)
        self.free = free
        #: DARSIE skip token: the instruction was eliminated before fetch —
        #: the token only advances the architectural PC, in program order,
        #: when it reaches the head of the queue
        self.skip_token = skip_token
        #: the functional outcome, stored by execute
        self.result: Optional["StepResult"] = None

    def __repr__(self) -> str:
        flags = [n for n in ("is_leader", "free", "skip_token") if getattr(self, n)]
        return f"IBufferEntry({self.inst!s}{''.join(' ' + n for n in flags)})"


_age = attrgetter("age")


class ZeroCostLedger:
    """Pipeline-wide record of queued zero-cost I-buffer entries.

    The decode-skip stage drains free entries and skip tokens outside
    issue bandwidth; this ledger names the warps holding any, so the
    stage visits only them.
    """

    __slots__ = ("total", "warps")

    def __init__(self) -> None:
        #: zero-cost entries queued across all warps
        self.total: int = 0
        #: the warps whose I-buffer holds at least one of them
        self.warps: Set["WarpRuntime"] = set()

    def in_age_order(self) -> List["WarpRuntime"]:
        """The warps holding a zero-cost entry, oldest first (a copy:
        draining a warp's last one takes it out of :attr:`warps`)."""
        warps = self.warps
        return sorted(warps, key=_age) if len(warps) > 1 else list(warps)


class IBuffer:
    """A warp's instruction buffer with incremental occupancy counters.

    ``buffered`` counts entries that occupy real I-buffer slots (counted
    against :attr:`~repro.timing.config.GPUConfig.ibuffer_entries`);
    ``zero_cost`` counts free entries and skip tokens, which were never
    fetched.  All mutation goes through :meth:`push` / :meth:`pop` /
    :meth:`clear` / :meth:`detach` so the counters (and the shared
    ledger) can never drift from the queue contents.
    """

    __slots__ = ("entries", "buffered", "zero_cost", "_ledger", "_owner")

    def __init__(self, ledger: ZeroCostLedger, owner: "WarpRuntime") -> None:
        #: underlying queue — read-only for peeking; mutate via methods
        self.entries: Deque[IBufferEntry] = deque()
        self.buffered: int = 0
        self.zero_cost: int = 0
        self._ledger = ledger
        self._owner = owner

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __getitem__(self, index: int) -> IBufferEntry:
        return self.entries[index]

    def push(self, entry: IBufferEntry) -> None:
        self.entries.append(entry)
        if entry.free or entry.skip_token:
            if not self.zero_cost:
                self._ledger.warps.add(self._owner)
            self.zero_cost += 1
            self._ledger.total += 1
        else:
            self.buffered += 1

    def pop(self) -> IBufferEntry:
        entry = self.entries.popleft()
        if entry.free or entry.skip_token:
            self.zero_cost -= 1
            self._ledger.total -= 1
            if not self.zero_cost:
                self._ledger.warps.discard(self._owner)
        else:
            self.buffered -= 1
        return entry

    def clear(self) -> None:
        self.detach()
        self.entries.clear()
        self.buffered = 0

    def detach(self) -> None:
        """Remove this buffer's zero-cost population from the shared
        ledger (the owning warp's TB left the SM)."""
        if self.zero_cost:
            self._ledger.total -= self.zero_cost
            self._ledger.warps.discard(self._owner)
            self.zero_cost = 0


#: one in-flight instruction: (warp, entry)
InflightItem = Tuple["WarpRuntime", IBufferEntry]


class WritebackQueue:
    """Latency-ordered in-flight instructions awaiting writeback.

    The execute stage :meth:`schedule`\\ s each instruction with its
    completion cycle; the writeback stage takes the ones due with
    :meth:`pop_due`.  A calendar: one bucket per ready cycle, appended
    in issue order, and a heap of the distinct ready cycles.  Writeback
    order is therefore ready cycle first, then issue (program) order —
    the ``(ready, seq)`` order of a heap with a sequence tiebreak — so
    it, and with it LeaderWB visibility, is deterministic.
    """

    __slots__ = ("_buckets", "_cycles")

    def __init__(self) -> None:
        #: ready cycle -> the instructions due then, in issue order
        self._buckets: Dict[int, List[InflightItem]] = {}
        #: the keys of ``_buckets``, as a heap
        self._cycles: List[int] = []

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def __bool__(self) -> bool:
        return bool(self._cycles)

    def schedule(self, ready: int, wrt: "WarpRuntime", entry: IBufferEntry) -> None:
        wrt.inflight += 1
        bucket = self._buckets.get(ready)
        if bucket is None:
            self._buckets[ready] = [(wrt, entry)]
            heapq.heappush(self._cycles, ready)
        else:
            bucket.append((wrt, entry))

    def pending(self) -> List[InflightItem]:
        """Snapshot of the in-flight instructions, in writeback order
        (oracle/debug aid)."""
        buckets = self._buckets
        return [item for ready in sorted(buckets) for item in buckets[ready]]

    def pop_due(self, cycle: int) -> List[InflightItem]:
        """Remove and return the in-flight instructions due at or before
        ``cycle``, in writeback order."""
        cycles = self._cycles
        if not cycles or cycles[0] > cycle:
            return []
        due = self._buckets.pop(heapq.heappop(cycles))
        while cycles and cycles[0] <= cycle:
            due += self._buckets.pop(heapq.heappop(cycles))
        return due

    def next_ready(self) -> Optional[int]:
        """Cycle at which the earliest in-flight instruction completes."""
        return self._cycles[0] if self._cycles else None


class WakeQueue:
    """Warps due a visit by a frontend's per-cycle pass.

    :meth:`WarpRuntime.wake <repro.timing.core.WarpRuntime.wake>` queues
    a warp whenever something its pass outcome depends on changes, and
    the frontend queues the warps its own pass or fetch hook moved
    (:meth:`revisit`); the frontend drains the queue once per cycle
    instead of walking every resident warp.  :meth:`drain` hands warps out in age order, which is
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

    def __bool__(self) -> bool:
        """Whether a warp is queued for the next pass."""
        return bool(self._pending)

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
        it is handed out.  The warps queued before the pass are sorted
        once; the heap holds only the ones that join it midway."""
        queued = self._pending
        self._pending = []
        queued.sort(key=_age)
        heap: List[Tuple[int, "WarpRuntime"]] = []
        self._heap = heap
        try:
            for wrt in queued:
                while heap and heap[0][0] < wrt.age:
                    yield self._visit(heapq.heappop(heap)[1])
                yield self._visit(wrt)
            while heap:
                yield self._visit(heapq.heappop(heap)[1])
        finally:
            self._cursor = float("inf")

    def _visit(self, wrt: "WarpRuntime") -> "WarpRuntime":
        self._cursor = wrt.age
        wrt.woken = False
        return wrt
