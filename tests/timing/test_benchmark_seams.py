"""The per-layer benchmark's seams stay on the simulator's call path.

``perf/spans.py`` times the pipeline by replacing class attributes with
wrappers: ``Stage.tick``, ``ExecuteStage.execute``,
``StagePipeline.tick`` and ``advance_idle``, every frontend hook a
frontend class defines, and ``FunctionalEngine.execute_instruction``.
A fast path that stopped calling one of them would silently zero its
per-layer metric.  These tests wrap the same attributes the same way,
count the calls during one simulation, and check the counts against the
simulated statistics.
"""

from collections import Counter

import numpy as np
import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, analyze_program, assemble, simulate
from repro.core.darsie import DarsieFrontend
from repro.harness.runner import WorkloadRunner
from repro.simt.executor import FunctionalEngine
from repro.timing.frontend import Frontend
from repro.timing.stages import ExecuteStage, Stage, StagePipeline
from repro.workloads import build_workload

#: the hooks ``perf/spans.py`` wraps on each frontend class that defines them
HOOKS = [h for h, v in vars(Frontend).items() if callable(v) and not h.startswith("_")]
#: the stages ``StagePipeline.tick`` ticks, by ``Stage.name``
TICKED = ("writeback", "decode-skip", "issue", "fetch")


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


@pytest.fixture
def calls(monkeypatch):
    """Install counting wrappers where ``perf/spans.py`` installs its
    spans; returns the live call counter."""
    counts: Counter = Counter()

    def wrap(owner, attr, name):
        """Count calls under ``name``, or ``name(*args)`` if callable."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[name(*args) if callable(name) else name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    wrap(FunctionalEngine, "execute_instruction", "engine.execute_instruction")
    wrap(ExecuteStage, "execute", "ExecuteStage.execute")
    wrap(Stage, "tick", lambda self, cycle: f"tick.{self.name}")
    wrap(StagePipeline, "tick", "StagePipeline.tick")
    advance_idle = StagePipeline.advance_idle

    def counted_advance_idle(self, delta):
        counts["advance_idle.cycles"] += delta
        return advance_idle(self, delta)

    monkeypatch.setattr(StagePipeline, "advance_idle", counted_advance_idle)
    for cls in set(_subclasses(Frontend)):
        for hook in HOOKS:
            if hook in vars(cls):
                wrap(cls, hook, f"{cls.__name__}.{hook}")
    return counts


def _check_pipeline_seams(counts: Counter, sim) -> None:
    stats = sim.stats
    ticks = counts["StagePipeline.tick"]
    # One SM: every cycle is either ticked or replayed by advance_idle.
    assert ticks + counts["advance_idle.cycles"] == sim.cycles
    for name in TICKED:
        assert counts[f"tick.{name}"] == ticks, name
    assert sum(n for k, n in counts.items() if k.startswith("tick.")) == len(TICKED) * ticks
    assert counts["ExecuteStage.execute"] == stats.instructions_executed
    assert counts["engine.execute_instruction"] == stats.instructions_executed


def _run_lib(config_name: str, counts: Counter):
    runner = WorkloadRunner(build_workload("LIB", "tiny"))
    program = runner.simulation_program(config_name)
    factory = runner.frontend_factory(config_name, None)
    mem, params = runner.workload.fresh()
    counts.clear()
    sim = simulate(
        program, runner.workload.launch, mem, params=params,
        config=runner.gpu_config, frontend_factory=factory,
    )
    assert runner.workload.verify(mem, params)
    return program, sim


def test_base_run_keeps_every_seam(calls):
    _, sim = _run_lib("BASE", calls)
    _check_pipeline_seams(calls, sim)
    stats = sim.stats
    # NullFrontend defines no hook: the base class's run, once per event.
    assert calls["Frontend.fetch_cycle"] == calls["StagePipeline.tick"]
    assert calls["Frontend.on_fetch"] == stats.instructions_fetched
    assert calls["Frontend.eliminate_at_issue"] == stats.instructions_executed
    assert calls["Frontend.on_executed"] == stats.instructions_executed
    assert calls["Frontend.on_writeback"] > 0


def test_darsie_run_reaches_every_hook_it_can(calls):
    program, sim = _run_lib("DARSIE", calls)
    _check_pipeline_seams(calls, sim)
    stats = sim.stats
    assert stats.instructions_skipped > 0
    assert calls["DarsieFrontend.fetch_cycle"] == calls["StagePipeline.tick"]
    assert calls["DarsieFrontend.on_fetch"] == stats.instructions_fetched
    # LIB has neither bar.sync nor an atomic, so it cannot reach the two
    # hooks those trigger; the kernel below reaches them.
    assert not any(i.is_barrier or i.is_atomic for i in program)
    unreachable = {"on_syncthreads", "on_global_communication"}
    missed = [
        h for h in HOOKS
        if h in vars(DarsieFrontend) and h not in unreachable
        and not calls[f"DarsieFrontend.{h}"]
    ]
    assert missed == []


SYNC_AND_ATOMIC = """
.param ctr
.param out
    mul.u32        $a, %tid.x, 3
    atom.global.add.u32 $old, [%param.ctr], 1
    bar.sync
    add.u32        $a, $a, 5
    mul.u32        $o, %tid.y, %ntid.x
    add.u32        $o, $o, %tid.x
    shl.u32        $o, $o, 2
    add.u32        $o, $o, %param.out
    st.global.s32  [$o], $a
    exit
"""


def test_darsie_barrier_and_atomic_hooks(calls):
    program = assemble(SYNC_AND_ATOMIC)
    analysis = analyze_program(program)
    mem = GlobalMemory(1 << 12)
    params = {"ctr": mem.alloc(1), "out": mem.alloc(128)}
    calls.clear()
    sim = simulate(
        program, LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(16, 8)), mem,
        params=params, frontend_factory=lambda: DarsieFrontend(analysis),
    )
    _check_pipeline_seams(calls, sim)
    assert calls["DarsieFrontend.on_syncthreads"] > 0
    assert calls["DarsieFrontend.on_global_communication"] > 0
    out = mem.read_array(params["out"], 128, dtype=np.int64)
    assert np.array_equal(out, np.arange(128) % 16 * 3 + 5)
