"""Per-cycle pipeline tracing and text visualisation.

Attach a :class:`PipelineTrace` to a simulation to record when each warp
fetches, issues, writes back — and, under DARSIE, *skips* — and render a
Gantt-style text diagram.  Intended for small kernels: it makes Figure
5's leader/follower choreography directly visible.

::

    trace = PipelineTrace()
    gpu = GPU(..., )
    gpu.attach_trace(trace)
    gpu.run()
    print(trace.render(max_cycles=120))

Legend: ``F`` fetch, ``I`` issue/execute, ``W`` writeback, ``S`` skip
(PC advanced without fetch), ``B`` blocked on DARSIE synchronization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Event codes, in precedence order when several land in one cycle.
FETCH = "F"
ISSUE = "I"
WRITEBACK = "W"
SKIP = "S"
BLOCKED = "B"
_PRECEDENCE = {SKIP: 5, ISSUE: 4, FETCH: 3, WRITEBACK: 2, BLOCKED: 1}


@dataclass(frozen=True)
class TraceEvent:
    """One pipeline event."""

    cycle: int
    sm: int
    tb: int
    warp: int
    kind: str
    pc: int


class PipelineTrace:
    """Event recorder + text renderer."""

    def __init__(self, max_events: int = 200_000):
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0

    def record(self, cycle: int, sm: int, tb: int, warp: int, kind: str, pc: int) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(cycle, sm, tb, warp, kind, pc))

    def warps(self) -> List[Tuple[int, int, int]]:
        return sorted({(e.sm, e.tb, e.warp) for e in self.events})

    def events_for(self, sm: int, tb: int, warp: int) -> List[TraceEvent]:
        return [e for e in self.events if (e.sm, e.tb, e.warp) == (sm, tb, warp)]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def render(self, max_cycles: int = 120, max_warps: int = 16, start: int = 0) -> str:
        """Gantt-style diagram: one row per warp, one column per cycle."""
        if not self.events:
            return "(empty pipeline trace)"
        end = start + max_cycles
        grid: Dict[Tuple[int, int, int], Dict[int, str]] = {}
        for e in self.events:
            if not (start <= e.cycle < end):
                continue
            row = grid.setdefault((e.sm, e.tb, e.warp), {})
            old = row.get(e.cycle)
            if old is None or _PRECEDENCE[e.kind] > _PRECEDENCE[old]:
                row[e.cycle] = e.kind
        lines = [
            f"pipeline trace, cycles [{start}, {end}) "
            "(F=fetch I=issue W=writeback S=skip B=blocked)"
        ]
        # Cycle ruler every 10 columns.
        ruler = "".join("|" if (c % 10 == 0) else " " for c in range(start, end))
        label_w = 14
        lines.append(" " * label_w + ruler)
        for key in self.warps()[:max_warps]:
            sm, tb, warp = key
            row = grid.get(key, {})
            cells = "".join(row.get(c, ".") for c in range(start, end))
            lines.append(f"sm{sm} tb{tb} w{warp:<3d}  ".ljust(label_w) + cells)
        if len(self.warps()) > max_warps:
            lines.append(f"... {len(self.warps()) - max_warps} more warps")
        if self.dropped:
            lines.append(f"({self.dropped} events dropped beyond max_events)")
        return "\n".join(lines)

    def leader_follower_summary(self) -> str:
        """Per-warp fetch/skip totals — Figure 5 at a glance."""
        rows = []
        for sm, tb, warp in self.warps():
            evs = self.events_for(sm, tb, warp)
            fetched = sum(1 for e in evs if e.kind == FETCH)
            skipped = sum(1 for e in evs if e.kind == SKIP)
            rows.append(f"  sm{sm}/tb{tb}/w{warp}: fetched={fetched} skipped={skipped}")
        return "warp activity:\n" + "\n".join(rows)


class StageOccupancyTrace:
    """Per-cycle, per-stage activity and buffer occupancy recorder.

    While a :class:`PipelineTrace` records *warp-level events* (fetch,
    issue, skip...), this trace records the *stage-level* view the
    staged pipeline exposes: how many state changes each stage produced
    this cycle, and how full the typed inter-stage buffers are.  One
    sample per busy SM per simulated cycle: the GPU ticks every busy SM
    on every cycle, traced or not.

    Dump with :meth:`write_jsonl` — one JSON object per line::

        {"cycle": 7, "sm": 0, "stages": {"writeback": 0, "decode-skip": 0,
         "issue": 3, "fetch": 2}, "ibuffer": 4, "zero_cost": 0, "inflight": 2}
    """

    def __init__(self, max_samples: int = 1_000_000):
        self.samples: List[Dict] = []
        self.max_samples = max_samples
        self.dropped = 0

    def sample(
        self,
        cycle: int,
        sm: int,
        stage_activity: Dict[str, int],
        occupancy: Dict[str, int],
    ) -> None:
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return
        row = {"cycle": cycle, "sm": sm, "stages": stage_activity}
        row.update(occupancy)
        self.samples.append(row)

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per sample; returns the line count."""
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
