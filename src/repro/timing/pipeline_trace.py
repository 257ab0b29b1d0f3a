"""Pipeline tracing: warp events as intervals, plus per-tick stage samples.

Attach a :class:`PipelineTrace` to a simulation to record when each warp
fetches, issues, writes back, *skips* (under DARSIE) and waits, and how
busy each stage and buffer is on every cycle.  :meth:`~PipelineTrace.render`
draws a Gantt-style text diagram; intended for small kernels, it makes
Figure 5's leader/follower choreography directly visible.

::

    trace = PipelineTrace()
    gpu = GPU(..., )
    gpu.attach_trace(trace)
    gpu.run()
    print(trace.render(max_cycles=120))

Every event is an interval ``[start, end)`` of cycles.  Fetch, issue,
writeback and skip last one cycle; a wait lasts from the tick in which
the warp joins its SM's sync-blocked set to the tick in which it leaves
it, so the waits sum to ``sync_wait_cycles``.

Legend: ``F`` fetch, ``I`` issue/execute, ``W`` writeback, ``S`` skip
(PC advanced without fetch), ``B`` blocked on synchronization.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Event codes, in precedence order when several cover one cycle.
FETCH = "F"
ISSUE = "I"
WRITEBACK = "W"
SKIP = "S"
BLOCKED = "B"
_PRECEDENCE = {SKIP: 5, ISSUE: 4, FETCH: 3, WRITEBACK: 2, BLOCKED: 1}


@dataclass(frozen=True)
class TraceEvent:
    """One pipeline event, on the cycles ``[start, end)``."""

    start: int
    end: int
    sm: int
    tb: int
    warp: int
    kind: str
    pc: int


class PipelineTrace:
    """Interval recorder and stage sampler, with text and JSONL views.

    A wait is recorded when it closes, and only if it covers a cycle.
    One still open, which only a run that raised leaves, stays in
    ``waiting``; :meth:`render` draws it to the window's end.  Records
    and samples beyond ``max_events`` and ``max_samples`` are counted in
    ``dropped`` and ``dropped_samples``.
    """

    def __init__(self, max_events: int = 200_000, max_samples: int = 1_000_000):
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0
        #: (sm, tb, warp) -> (start cycle, fetch PC) of each open wait
        self.waiting: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        self.samples: List[Dict] = []
        self.max_samples = max_samples
        self.dropped_samples = 0

    def record(self, cycle: int, sm: int, tb: int, warp: int, kind: str, pc: int,
               end: Optional[int] = None) -> None:
        """An event on ``[cycle, end)``: one cycle unless ``end`` is given."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        end = cycle + 1 if end is None else end
        self.events.append(TraceEvent(cycle, end, sm, tb, warp, kind, pc))

    def open_wait(self, cycle: int, sm: int, tb: int, warp: int, pc: int) -> None:
        """The warp joined the sync-blocked set at fetch PC ``pc``."""
        self.waiting[sm, tb, warp] = (cycle, pc)

    def close_wait(self, cycle: int, sm: int, tb: int, warp: int) -> None:
        """The warp left the set: record its wait up to ``cycle``."""
        start, pc = self.waiting.pop((sm, tb, warp))
        if cycle > start:
            self.record(start, sm, tb, warp, BLOCKED, pc, end=cycle)

    def sample(self, cycle: int, sm: int, stage_activity: Dict[str, int],
               occupancy: Dict[str, int]) -> None:
        """One busy SM's tick: each stage's activity and the buffer fill."""
        if len(self.samples) >= self.max_samples:
            self.dropped_samples += 1
            return
        row = {"cycle": cycle, "sm": sm, "stages": stage_activity}
        row.update(occupancy)
        self.samples.append(row)

    def warps(self) -> List[Tuple[int, int, int]]:
        return sorted({(e.sm, e.tb, e.warp) for e in self.events}.union(self.waiting))

    def counts(self) -> Dict[str, int]:
        """Cycles covered per event code."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + e.end - e.start
        return out

    def render(self, max_cycles: int = 120, max_warps: int = 16, start: int = 0) -> str:
        """Gantt-style diagram: one row per warp, one column per cycle."""
        if not self.events and not self.waiting:
            return "(empty pipeline trace)"
        end = start + max_cycles
        spans = [((e.sm, e.tb, e.warp), e.kind, e.start, e.end) for e in self.events]
        spans += [(key, BLOCKED, first, end) for key, (first, _) in self.waiting.items()]
        grid: Dict[Tuple[int, int, int], Dict[int, str]] = {}
        for key, kind, first, last in spans:
            row = grid.setdefault(key, {})
            for c in range(max(first, start), min(last, end)):
                old = row.get(c)
                if old is None or _PRECEDENCE[kind] > _PRECEDENCE[old]:
                    row[c] = kind
        lines = [
            f"pipeline trace, cycles [{start}, {end}) "
            "(F=fetch I=issue W=writeback S=skip B=blocked)"
        ]
        # Cycle ruler every 10 columns.
        ruler = "".join("|" if (c % 10 == 0) else " " for c in range(start, end))
        label_w = 14
        lines.append(" " * label_w + ruler)
        warps = self.warps()
        for key in warps[:max_warps]:
            sm, tb, warp = key
            row = grid.get(key, {})
            cells = "".join(row.get(c, ".") for c in range(start, end))
            lines.append(f"sm{sm} tb{tb} w{warp:<3d}  ".ljust(label_w) + cells)
        if len(warps) > max_warps:
            lines.append(f"... {len(warps) - max_warps} more warps")
        if self.dropped:
            lines.append(f"({self.dropped} events dropped beyond max_events)")
        return "\n".join(lines)

    def leader_follower_summary(self) -> str:
        """Per-warp fetch/skip totals — Figure 5 at a glance."""
        n = Counter((e.sm, e.tb, e.warp, e.kind) for e in self.events)
        rows = [
            f"  sm{sm}/tb{tb}/w{warp}: fetched={n[sm, tb, warp, FETCH]} "
            f"skipped={n[sm, tb, warp, SKIP]}"
            for sm, tb, warp in self.warps()
        ]
        return "warp activity:\n" + "\n".join(rows)

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per stage sample; returns the line count::

            {"cycle": 7, "ibuffer": 4, "inflight": 2, "sm": 0, "stages":
             {"decode-skip": 0, "fetch": 2, "issue": 3, "writeback": 0},
             "zero_cost": 0}
        """
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.samples:
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
        return len(self.samples)

    def busiest_stage(self) -> Dict[str, int]:
        """Total activity per stage across the run (quick profile)."""
        totals: Dict[str, int] = {}
        for row in self.samples:
            for name, act in row["stages"].items():
                totals[name] = totals.get(name, 0) + act
        return totals
