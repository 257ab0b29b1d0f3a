"""The per-layer benchmark's seams stay on the simulator's call path.

``perf/spans.py`` times the pipeline by replacing class attributes with
wrappers: ``Stage.tick``, ``ExecuteStage.execute``,
``StagePipeline.tick``, every frontend hook a frontend class defines,
``FunctionalEngine.execute_instruction`` and ``Tracer.record``.  A fast
path that stopped calling one of them would
silently zero its per-layer metric.  These tests wrap the same
attributes the same way, count the calls during one simulation, and
check the counts against the simulated statistics.  The pipeline calls
an event hook only on a frontend whose class defines it, so a frontend
that inherits one from ``Frontend`` makes no call to it.

The functional runner executes a lock-stepped round through
``FunctionalEngine.execute_group`` and records it through
``Tracer.record_group``, around the per-warp ``execute_instruction``:
every executed warp-instruction goes through exactly one of the two.
``Tracer.record`` records a per-warp round as a group of one, so every
trace record goes through ``record_group``.

``perf/spans.py`` also wraps ``StagePipeline.advance_idle``, which the
simulator never calls (it steps every cycle): a test pins that the
attribute exists and is never called.  ``perf/workloads.py`` builds its
sweep as ``parallel.RunSpec(abbr=, config_name=, scale=)`` specs and
``perf/child.py`` reads ``spec.config_name``: two tests pin both names
on :class:`~repro.config.RunConfig`.  The last test installs
``perf/spans.py`` itself, in a process of its own, and drives a sweep
under it.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import repro
from repro import (
    Dim3, GlobalMemory, LaunchConfig, Tracer, analyze_program, assemble, run_functional, simulate,
)
from repro.config import RunConfig
from repro.core.darsie import DarsieFrontend
from repro.harness import parallel
from repro.harness.runner import WorkloadRunner
from repro.isa.instructions import CONTROL_OPS, Opcode
from repro.simt.executor import FunctionalEngine
from repro.timing.frontend import EVENT_HOOKS, Frontend
from repro.timing.stages import ExecuteStage, Stage, StagePipeline
from repro.workloads import build_workload

#: the hooks ``perf/spans.py`` wraps on each frontend class that defines them
HOOKS = [h for h, v in vars(Frontend).items() if callable(v) and not h.startswith("_")]
#: the stages ``StagePipeline.tick`` ticks, by ``Stage.name``
TICKED = ("writeback", "decode-skip", "issue", "fetch")
#: stage variants counted as the stage they replace, as ``perf/spans.py``
#: times them
VARIANT_OF = {"dual-issue": "issue"}


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
    wrap(Stage, "tick", lambda self, cycle: f"tick.{VARIANT_OF.get(self.name, self.name)}")
    wrap(StagePipeline, "tick", "StagePipeline.tick")
    wrap(StagePipeline, "advance_idle", "StagePipeline.advance_idle")
    for cls in set(_subclasses(Frontend)):
        for hook in HOOKS:
            if hook in vars(cls):
                wrap(cls, hook, f"{cls.__name__}.{hook}")
    return counts


def _check_pipeline_seams(counts: Counter, sim, drained: int = 0) -> None:
    """``drained``: the warp-instructions the decode-skip drain executes
    outside issue (DAC-IDEAL's free entries)."""
    stats = sim.stats
    ticks = counts["StagePipeline.tick"]
    # One SM, stepped: every cycle is one tick, and nothing calls the
    # ``advance_idle`` that the benchmark wraps.
    assert ticks == sim.cycles
    assert counts["StagePipeline.advance_idle"] == 0
    for name in TICKED:
        assert counts[f"tick.{name}"] == ticks, name
    assert sum(n for k, n in counts.items() if k.startswith("tick.")) == len(TICKED) * ticks
    assert counts["ExecuteStage.execute"] == stats.instructions_executed
    assert counts["engine.execute_instruction"] == stats.instructions_executed + drained


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


def _event_hook_calls(counts: Counter, cls=None):
    """The counted event-hook calls, of ``cls`` only if given."""
    return {
        name: n for name, n in counts.items()
        if name.rpartition(".")[2] in EVENT_HOOKS
        and (cls is None or name.startswith(f"{cls.__name__}."))
    }


def test_base_run_keeps_every_seam(calls):
    """BASE and DUAL-ISSUE define no event hook: they call none, and
    every pipeline seam stays on the call path."""
    assert set(HOOKS) - set(EVENT_HOOKS) == {"bind", "make_issue_stage"}
    for variant in ("BASE", "DUAL-ISSUE"):
        _, sim = _run_lib(variant, calls)
        _check_pipeline_seams(calls, sim)
        assert sim.stats.instructions_executed > 0
        assert _event_hook_calls(calls) == {}, variant
        assert calls["Frontend.bind"] == 1, variant


def test_uv_calls_only_the_hooks_it_defines(calls):
    _, sim = _run_lib("UV", calls)
    _check_pipeline_seams(calls, sim)
    assert calls["UVFrontend.eliminate_at_issue"] == sim.stats.instructions_executed
    assert calls["UVFrontend.on_tb_launch"] == build_workload("LIB", "tiny").launch.num_blocks
    assert _event_hook_calls(calls, Frontend) == {}


def test_dac_ideal_calls_only_the_hooks_it_defines(calls):
    _, sim = _run_lib("DAC-IDEAL", calls)
    assert sim.stats.instructions_skipped > 0
    _check_pipeline_seams(calls, sim, drained=sim.stats.instructions_skipped)
    assert calls["DacIdealFrontend.fetch_cycle"] == calls["StagePipeline.tick"]
    assert calls["DacIdealFrontend.on_fetch"] == sim.stats.instructions_fetched
    assert _event_hook_calls(calls, Frontend) == {}


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


def test_on_writeback_gets_only_leader_entries(monkeypatch):
    """The writeback stage calls ``on_writeback`` only for an entry
    fetched as a skip-table leader: every call under DARSIE on LIB at
    tiny gets one, and there is at least one call."""
    leaders = []
    hook = DarsieFrontend.on_writeback

    def recorded(self, wrt, entry):
        leaders.append(entry.is_leader)
        return hook(self, wrt, entry)

    monkeypatch.setattr(DarsieFrontend, "on_writeback", recorded)
    _, sim = _run_lib("DARSIE", Counter())
    assert sim.stats.instructions_skipped > 0
    assert leaders and all(leaders)


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


# -- the functional runner ------------------------------------------------------


@pytest.fixture
def functional_calls(monkeypatch):
    """Count per-warp and group executions and records; returns the
    live counter."""
    counts: Counter = Counter()

    def wrap(owner, attr, tally):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally(result, *args)
            return result

        monkeypatch.setattr(owner, attr, wrapper)

    def per_warp(result, engine, tb, warp, inst, *overrides):
        counts["execute_instruction"] += 1
        if inst.opcode not in CONTROL_OPS and inst.opcode not in (Opcode.ATOM, Opcode.NOP):
            counts["per_warp_alu_ld_st"] += 1

    def grouped(ran, engine, tb, group, inst):
        if ran:
            counts["execute_group_warps"] += len(group)

    wrap(FunctionalEngine, "execute_instruction", per_warp)
    wrap(FunctionalEngine, "execute_group", grouped)
    wrap(Tracer, "record", lambda _, *args: counts.update(["record"]))
    wrap(Tracer, "record_group",
         lambda _, tracer, tb, warps, *rest: counts.update({"record_group_rows": len(warps)}))
    return counts


@pytest.mark.parametrize("abbr", ["MM", "LIB", "DIVEO"])
def test_functional_run_keeps_its_seams(abbr, functional_calls):
    workload = build_workload(abbr, "tiny")
    mem, params = workload.fresh()
    tracer = Tracer()
    engine = run_functional(workload.program, workload.launch, mem, params=params, tracer=tracer)
    calls = functional_calls
    executed = engine.instructions_executed
    assert calls["execute_instruction"] + calls["execute_group_warps"] == executed
    # A per-warp record is a group of one.
    assert calls["record"] == calls["execute_instruction"]
    assert calls["record_group_rows"] == len(tracer.trace) == executed
    if abbr == "DIVEO":  # divergent: both paths run
        assert calls["execute_instruction"] and calls["execute_group_warps"]
    else:  # lock-stepped throughout: no ALU, ld or st runs warp by warp
        assert calls["execute_group_warps"] and calls["per_warp_alu_ld_st"] == 0


def test_advance_idle_stays_but_is_never_called(calls):
    """``perf/spans.py`` wraps ``StagePipeline.advance_idle`` by name; the
    attribute stays for it, and the stepping simulator never calls it
    (``_check_pipeline_seams`` checks every run here), not even under
    SILICON-SYNC, whose barrier releases are timed."""
    assert callable(StagePipeline.advance_idle)
    _, sim = _run_lib("SILICON-SYNC", calls)
    assert sim.stats.branch_barriers > 0
    _check_pipeline_seams(calls, sim)


# -- the benchmark's sweep descriptors ------------------------------------------


def test_perf_spec_is_a_run_config():
    spec = parallel.RunSpec(abbr="LIB", config_name="DARSIE", scale="tiny")
    config = RunConfig(abbr="LIB", variant="DARSIE", scale="tiny")
    assert spec == config
    assert spec.label == config.label == "LIB/DARSIE@tiny"
    assert spec.config_name == config.config_name == "DARSIE"
    assert parallel.cache_key(spec) == parallel.cache_key(config)


def test_perf_specs_run_through_the_sweep(tmp_path):
    variants = ("BASE", "DAC-IDEAL", parallel.FUNCTIONAL)
    specs = [parallel.RunSpec(abbr="LIB", config_name=v, scale="tiny") for v in variants]
    outcomes, stats = parallel.run_specs(specs, jobs=1, use_cache=True,
                                         cache_dir=str(tmp_path))
    assert all(o.ok for o in outcomes) and stats.simulated == len(specs)
    # perf/child.py labels each landed spec, and perf/workloads.py digests it
    assert [o.spec.label for o in outcomes] == [f"LIB/{v}@tiny" for v in variants]
    assert [o.spec.config_name for o in outcomes] == list(variants)
    # perf/child.py's set-up phase
    for spec in specs:
        runner = WorkloadRunner(build_workload(spec.abbr, spec.scale))
        runner.simulation_program(spec.config_name)
        if spec.config_name != parallel.FUNCTIONAL:
            factory = runner.frontend_factory(spec.config_name)
            assert factory is None or isinstance(factory(), Frontend)


# -- the benchmark's span recorder ----------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PERF = os.path.join(os.path.dirname(SRC), "perf")

#: Installs the span recorder as ``perf/child.py`` does, then runs a tiny
#: LIB sweep cold and warm into a fresh cache; prints what it recorded.
SPANS_DRIVE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import repro.harness.experiments
from spans import SpanRecorder, install
from repro.harness import parallel

rec = SpanRecorder()
install(rec)
specs = [parallel.RunSpec(abbr="LIB", config_name=v, scale="tiny")
         for v in ("BASE", "DARSIE", parallel.FUNCTIONAL)]
phases = []
with tempfile.TemporaryDirectory() as cache:
    for _ in ("cold", "warm"):
        _, stats = parallel.run_specs(specs, jobs=1, use_cache=True, cache_dir=cache)
        builds = rec.totals.get("workloads.build", [0])[0]
        phases.append([stats.simulated, stats.cache_hits, builds])
print(json.dumps({
    "phases": phases,
    "spans": sorted(rec.totals),
    "requests": sorted({r[4] for r in rec.records if r[4]}),
}))
"""

#: spans every layer of that sweep must record (no DAC-IDEAL spec, so no
#: ``baselines.dac_profile``)
LAYER_SPANS = {
    "harness.run_specs", "harness.code_fingerprint", "harness.cache_key",
    "harness.cache_lookup", "harness.cache_store", "harness.runner_run",
    "workloads.build", "workloads.fresh", "workloads.verify", "core.analyze",
    "simt.run_functional", "analysis.limit_study", "timing.simulate",
    "timing.stage.execute", "timing.stage.fetch", "timing.stage.issue",
    "timing.stage.decode_skip", "timing.stage.writeback", "timing.frontend.fetch_cycle",
}


def test_perf_spans_install_and_time_every_build():
    """Every name ``perf/spans.py`` wraps resolves (``install`` raises
    otherwise), every layer records, and ``workloads.build`` counts one
    build per simulated spec and none for a cache hit."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SPANS_DRIVE, PERF],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["phases"] == [[3, 0, 3], [0, 3, 3]]
    assert LAYER_SPANS <= set(out["spans"])
    assert out["requests"] == ["LIB/BASE@tiny", "LIB/DARSIE@tiny", "LIB/FUNCTIONAL@tiny"]
