"""Outside-in span recording for the benchmark's traced run.

:func:`install` wraps functions and methods of the ``repro`` package
where their callers look them up — a module global such as
``repro.harness.runner.simulate``, or a class attribute such as
``Stage.tick`` — so the package itself carries no tracing code.  No
pipeline or stage trace is ever attached: either one turns the
simulator's event-skip off and would change what is measured.

Hot spans (stage ticks, frontend hooks, the functional executor) close
millions of times per sweep, so every span is folded into per-name
totals as it closes; the coarse ones named in ``COARSE_SPANS`` are also
kept whole (name, start, end, parent, request id).  Everything stays in
memory until :meth:`SpanRecorder.dump` writes it out at exit.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

#: ``Stage.name`` -> span name (dual issue is the issue stage's variant).
STAGE_SPANS = {
    "writeback": "timing.stage.writeback",
    "decode-skip": "timing.stage.decode_skip",
    "issue": "timing.stage.issue",
    "dual-issue": "timing.stage.issue",
    "fetch": "timing.stage.fetch",
}

#: Spans kept as whole records: at most a few per spec.
COARSE_SPANS = frozenset({
    "process.import",
    "harness.run_specs",
    "harness.runner_run",
    "timing.simulate",
    "baselines.dac_profile",
    "simt.run_functional",
    "analysis.limit_study",
})


class SpanRecorder:
    """A stack of open spans plus per-name totals of closed ones.

    ``totals[name]`` is ``[calls, inclusive_s, self_s]``.  Self time is
    a span's duration minus the time its direct children cover, so the
    self times of all spans under a root add up to the root's duration.
    Inclusive time counts only the outermost of nested same-name spans,
    so recursion is not counted twice.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: request id (spec label) that new coarse records are tagged with
        self.request: Optional[str] = None
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self.records: List[tuple] = []
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] = self._open.get(name, 0) + 1

    def close(self) -> None:
        end = self.clock()
        name, start, children = self._stack.pop()
        duration = end - start
        depth = self._open[name] - 1
        self._open[name] = depth
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[2] += duration - children
        if depth == 0:
            total[1] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if name in COARSE_SPANS:
            self.records.append(
                (name, start, end, parent[0] if parent else None, self.request)
            )

    def count(self, counter: str) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + 1

    def span(self, name: str, fn: Callable, tally: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span.  ``tally(result)`` may name a counter
        to bump."""
        open_, close, count = self.open, self.close, self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            if tally is not None:
                counter = tally(result)
                if counter:
                    count(counter)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {
            "totals": self.totals,
            "counters": self.counters,
            "records": [list(r) for r in self.records],
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics are built from.

    Call it after importing ``repro.harness`` and before any sweep; the
    runner's imports have by then defined every frontend subclass."""
    from repro.harness import faults, parallel, runner
    from repro.simt.executor import FunctionalEngine
    from repro.simt.tracer import Tracer
    from repro.timing.frontend import Frontend
    from repro.timing.stages import ExecuteStage, Stage, StagePipeline
    from repro.workloads.base import Workload

    def wrap(owner, attr: str, name: str, **kwargs) -> None:
        setattr(owner, attr, rec.span(name, getattr(owner, attr), **kwargs))

    # repro.harness: the sweep, its cache, and the runner entry points.
    wrap(parallel, "run_specs", "harness.run_specs")
    wrap(parallel, "code_fingerprint", "harness.code_fingerprint")
    wrap(parallel, "cache_key", "harness.cache_key")
    wrap(parallel, "cache_lookup", "harness.cache_lookup",
         tally=lambda r: "harness.cache_hits" if r[1] == "hit" else None)
    # The only seam around a cache write; it has no public name.
    wrap(parallel, "_cache_store", "harness.cache_store",
         tally=lambda ok: None if ok else "harness.cache_store_failures")
    wrap(runner.WorkloadRunner, "run", "harness.runner_run")
    wrap(runner.WorkloadRunner, "functional_trace", "harness.runner_run")
    # Every spec passes its label through the fault hook just before it
    # executes: that label is the request id of the spans that follow.
    before_execute = faults.before_execute

    def tag_request(label, *args, **kwargs):
        rec.request = label
        return before_execute(label, *args, **kwargs)

    faults.before_execute = tag_request

    # repro.workloads / repro.core / repro.baselines / repro.analysis.
    wrap(parallel, "build_workload", "workloads.build")
    wrap(Workload, "fresh", "workloads.fresh")
    wrap(Workload, "verify", "workloads.verify",
         tally=lambda ok: None if ok else "workloads.verify_failures")
    wrap(runner, "analyze_program", "core.analyze")
    wrap(runner, "build_dac_profile", "baselines.dac_profile")
    wrap(parallel, "redundancy_levels", "analysis.limit_study")
    wrap(parallel, "taxonomy_breakdown", "analysis.limit_study")

    # repro.simt: the functional executor and the limit-study tracer.
    wrap(runner, "run_functional", "simt.run_functional")
    wrap(FunctionalEngine, "execute_instruction", "simt.execute")
    wrap(Tracer, "record", "simt.tracer_record")

    # repro.timing: simulate(), the ticked stages, execute, frontends.
    wrap(runner, "simulate", "timing.simulate")
    wrap(ExecuteStage, "execute", "timing.stage.execute")
    stage_tick = Stage.tick
    open_, close = rec.open, rec.close

    def tick(self, cycle):
        open_(STAGE_SPANS[self.name])
        try:
            return stage_tick(self, cycle)
        finally:
            close()

    Stage.tick = tick
    pipeline_tick = StagePipeline.tick
    advance_idle = StagePipeline.advance_idle

    def counted_tick(self, cycle):
        activity = pipeline_tick(self, cycle)
        rec.count("timing.pipeline_ticks")
        if not activity:
            rec.count("timing.idle_ticks")
        return activity

    def counted_advance_idle(self, delta):
        rec.count("timing.advance_idle_calls")
        return advance_idle(self, delta)

    StagePipeline.tick = counted_tick
    StagePipeline.advance_idle = counted_advance_idle
    hooks = [h for h, v in vars(Frontend).items() if callable(v) and not h.startswith("_")]
    for cls in set(_subclasses(Frontend)):
        for hook in hooks:
            if hook in vars(cls):
                wrap(cls, hook, f"timing.frontend.{hook}")
