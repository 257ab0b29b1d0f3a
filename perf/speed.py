"""The host's speed, measured inside each measured process.

On a shared host the CPU's speed changes from second to second: other
tenants slow a core by up to half for a few seconds at a time, more
often in some minutes than others.  A cold sweep's wall time moves with
that, by up to 40% between runs, which would hide most changes to the
code.

:class:`Speedometer` times a fixed reference step every
``INTERVAL_S`` of wall time, from a timer signal, while the measured
work runs in the same process.  The mean step time over the run says how
fast the host was during exactly that run, so a phase's time can be
given at the host's nominal speed::

    nominal_s = (wall_s - busy_s) * NOMINAL_STEP_S / mean_step_s

where ``busy_s`` is the time the steps themselves took inside the timed
window.  The reference step is plain Python shaped like a cycle-level
simulator's inner loop (objects, a dict scoreboard, a heap of pending
writebacks), so host slowdowns hit it and the simulator alike.  It
imports nothing from the measured package and must not change: every
commit is measured against the same step.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

#: Seconds between two reference steps.
INTERVAL_S = 0.1
#: Mean time of one reference step, inside a running sweep, on the
#: calibration host in a quiet stretch (see perf/README.md); only the
#: unit of the scaled times depends on it.
NOMINAL_STEP_S = 0.0022


class _Warp:
    __slots__ = ("wid", "pc", "regs", "ready")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.pc = 0
        self.regs = {r: wid * 31 + r for r in range(16)}
        self.ready = 0


def reference_step(cycles: int = 2000, n_warps: int = 48) -> int:
    """A fixed amount of simulator-shaped work (about 2 ms); returns the
    number of instructions it issued."""
    warps = [_Warp(w) for w in range(n_warps)]
    pending: list = []
    seq = 0
    scoreboard = {}
    issued = 0
    for cycle in range(cycles):
        while pending and pending[0][0] <= cycle:
            _, _, warp, reg = heapq.heappop(pending)
            scoreboard.pop((warp.wid, reg), None)
            warp.ready = cycle
        for warp in warps:
            if warp.ready > cycle:
                continue
            dst = (warp.pc * 7 + warp.wid) & 15
            src = (dst + 3) & 15
            if (warp.wid, src) in scoreboard:
                continue
            warp.regs[dst] = (warp.regs[src] * 3 + warp.pc) & 0xFFFF
            scoreboard[(warp.wid, dst)] = cycle
            seq += 1
            heapq.heappush(pending, (cycle + 1 + (warp.regs[dst] & 7), seq, warp, dst))
            warp.pc += 1
            warp.ready = cycle + 1
            issued += 1
            break
    return issued


class Speedometer:
    """Reference steps on a wall-clock timer, from :meth:`start` to
    :meth:`stop`.  One process runs at most one at a time: it owns
    ``SIGALRM``."""

    def __init__(self) -> None:
        self.steps: List[float] = []
        #: the steps' time so far; a clock that subtracts it stops while
        #: a step runs (the traced run's span clock does)
        self.busy_s = 0.0

    def _tick(self, *_signal) -> None:
        start = time.perf_counter()
        reference_step()
        step_s = time.perf_counter() - start
        self.steps.append(step_s)
        self.busy_s += step_s

    def start(self) -> None:
        """Start the timer; call it where the timed window begins."""
        reference_step()  # the first call is slower: keep it out of the mean
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        """End the timer; ``{"busy_s", "mean_step_s", "steps"}``, where
        ``busy_s`` is the steps' time since :meth:`start`.  One more step,
        outside that window, makes sure there is one to average."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        busy_s = self.busy_s
        self._tick()
        return {
            "busy_s": busy_s,
            "mean_step_s": sum(self.steps) / len(self.steps),
            "steps": len(self.steps),
        }


def to_nominal(speed: dict) -> float:
    """The factor that turns host seconds measured under ``speed`` (a
    :meth:`Speedometer.stop` result) into seconds at the nominal speed."""
    return NOMINAL_STEP_S / speed["mean_step_s"]


def nominal(wall_s: float, speed: dict) -> float:
    """``wall_s`` of a phase that ran under ``speed``, without the
    steps' own time, at the nominal host speed."""
    return (wall_s - speed["busy_s"]) * to_nominal(speed)
