"""The forward-progress watchdog.

The two ways a simulation can stop making progress (the cycle budget
runs out, no instruction executes for the stagnation window) must each
raise a structured :class:`DeadlockError` carrying a per-stage/per-warp
dump.  The cycle budget ``GPUConfig.max_cycles`` is a pure guard: for
every variant it trips at exactly the budgeted cycle, and a run it lets
finish is bit-identical to one under the default budget.
"""

import json

import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, assemble
from repro.harness.runner import WorkloadRunner
from repro.timing import small_config
from repro.timing.frontend import FetchAction, Frontend
from repro.timing.gpu import GPU, DeadlockError
from repro.variants import REGISTRY
from repro.workloads import build_workload


class TestWatchdog:
    """The two no-forward-progress detectors."""

    INFINITE_LOOP = """
    loop:
        add.u32 $x, $x, 1
        bra loop
    """

    def _wedge_gpu(self, **overrides) -> GPU:
        prog = assemble("nop\nnop\nnop\nexit")
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32))
        mem = GlobalMemory(1 << 10)
        return GPU(prog, launch, mem,
                   config=small_config(num_sms=1).scaled(**overrides))

    def test_infinite_loop_trips_cycle_budget(self):
        prog = assemble(self.INFINITE_LOOP)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32))
        mem = GlobalMemory(1 << 10)
        budget = 2_000
        gpu = GPU(prog, launch, mem,
                  config=small_config(num_sms=1).scaled(max_cycles=budget))
        with pytest.raises(DeadlockError, match="max_cycles") as exc_info:
            gpu.run()
        dump = exc_info.value.dump
        assert dump["reason"] == "max_cycles"
        assert dump["cycle"] <= budget  # within the watchdog window
        assert exc_info.value.to_dict()["dump"] is dump

    def test_stagnation_detector_and_dump_shape(self):
        """No instruction retiring for the whole window raises, and the
        dump names every stage and every live warp."""
        window = 300
        gpu = self._wedge_gpu(watchdog_cycles=window)
        # Wedge: the SM's tick does nothing, so nothing executes.
        gpu.sms[0].tick = lambda cycle: None
        with pytest.raises(DeadlockError, match="no instruction executed") as exc_info:
            gpu.run()
        dump = exc_info.value.dump
        assert dump["reason"] == "no_instruction_executed"
        assert dump["cycle"] <= window + 2
        (sm,) = dump["sms"]
        assert sm["stages"]  # per-stage identity...
        assert {"ibuffer", "zero_cost", "inflight"} <= set(sm["occupancy"])
        assert sm["warps"]  # ...and per-warp detail
        for warp in sm["warps"]:
            assert {"warp_id", "pc", "fetch_pc", "flags",
                    "scoreboard", "inflight"} <= set(warp)
        # the dump is a JSON-safe artifact (CI uploads it verbatim)
        import json

        json.dumps(exc_info.value.to_dict())

    #: reason -> the config overrides that make a wedged SM raise it
    WEDGES = {
        "max_cycles": {"max_cycles": 200, "watchdog_cycles": 100_000},
        "no_instruction_executed": {"watchdog_cycles": 100},
    }

    @pytest.mark.parametrize("reason", list(WEDGES))
    def test_every_dump_survives_a_json_round_trip(self, reason):
        gpu = self._wedge_gpu(**self.WEDGES[reason])
        gpu.sms[0].tick = lambda cycle: None
        with pytest.raises(DeadlockError) as exc_info:
            gpu.run()
        record = exc_info.value.to_dict()
        assert record["dump"]["reason"] == reason
        assert record["message"] == str(exc_info.value)
        assert json.loads(json.dumps(record)) == record  # JSON-native values only


class _HoldAtFetch(Frontend):
    """A stuck machine: every warp waits at fetch forever, so nothing is
    fetched, issued or in flight."""

    def filter_fetch(self, warp_rt, pc: int) -> FetchAction:
        return FetchAction.WAIT


class _ReleaseAtFetch(Frontend):
    """Every warp waits at fetch until cycle ``release``: a timed
    release, as SILICON-SYNC's barrier releases are timed, before which
    nothing executes."""

    def __init__(self, release: int) -> None:
        self.release = release
        self.cycle = 0

    def fetch_cycle(self, cycle: int) -> None:
        self.cycle = cycle

    def filter_fetch(self, warp_rt, pc: int) -> FetchAction:
        return FetchAction.FETCH if self.cycle >= self.release else FetchAction.WAIT


def held_lib(frontend_factory, **overrides):
    """A fresh LIB@tiny BASE simulation under ``frontend_factory`` with GPU
    config overrides, and a check of its output."""
    runner = WorkloadRunner(build_workload("LIB", "tiny"))
    mem, params = runner.workload.fresh()
    gpu = GPU(
        runner.workload.program,
        runner.workload.launch,
        mem,
        params=params,
        config=runner.gpu_config.scaled(**overrides),
        frontend_factory=frontend_factory,
    )
    return gpu, lambda: runner.workload.verify(mem, params)


def test_a_stuck_spec_raises_at_the_end_of_the_window():
    """A real run that can never fetch executes nothing: the stagnation
    window raises on the cycle after it ends (the window opens on the
    first tick), with a dump naming every held warp."""
    window = 200
    gpu, _ = held_lib(_HoldAtFetch, watchdog_cycles=window)
    with pytest.raises(DeadlockError, match="no instruction executed") as exc_info:
        gpu.run()
    record = exc_info.value.to_dict()
    dump = record["dump"]
    assert (dump["reason"], dump["cycle"]) == ("no_instruction_executed", window + 2)
    assert dump["instructions_executed"] == 0
    warps = [w for sm in dump["sms"] for w in sm["warps"]]
    assert warps and all(
        w["ibuffer"] == 0 and w["inflight"] == 0 and w["fetch_pc"] == w["pc"]
        for w in warps
    )
    assert json.loads(json.dumps(record)) == record


@pytest.mark.parametrize("reason,overrides,cycle", [
    ("max_cycles", {"max_cycles": 500, "watchdog_cycles": 100_000}, 500),
    ("no_instruction_executed", {"watchdog_cycles": 1_000}, 1_002),
], ids=["max_cycles", "no_instruction_executed"])
def test_a_far_release_never_delays_a_detector(reason, overrides, cycle):
    """A timed release far past both detectors does not hold them off:
    each raises at its own cycle."""
    gpu, _ = held_lib(lambda: _ReleaseAtFetch(1_000_000), **overrides)
    with pytest.raises(DeadlockError) as exc_info:
        gpu.run()
    dump = exc_info.value.dump
    assert (dump["reason"], dump["cycle"]) == (reason, cycle)
    assert dump["instructions_executed"] == 0


def test_a_release_inside_the_window_is_not_a_deadlock():
    """A timed release as the stagnation window closes lets the run
    finish: the output is right and the whole run is the undelayed one,
    shifted by the release."""
    window = 1_000  # longer than a DRAM access, which also executes nothing
    gpu, verify = held_lib(Frontend, watchdog_cycles=window)
    undelayed = gpu.run()
    assert verify()
    gpu, verify = held_lib(lambda: _ReleaseAtFetch(window), watchdog_cycles=window)
    delayed = gpu.run()
    assert verify()
    assert delayed.cycles == undelayed.cycles + window
    assert delayed.stats.instructions_executed == undelayed.stats.instructions_executed


def build_gpu(variant: str, **overrides) -> GPU:
    """A fresh LIB@tiny simulation of ``variant`` with GPU config overrides."""
    runner = WorkloadRunner(build_workload("LIB", "tiny"))
    mem, params = runner.workload.fresh()
    return GPU(
        runner.simulation_program(variant),
        runner.workload.launch,
        mem,
        params=params,
        config=runner.gpu_config.scaled(**overrides),
        frontend_factory=runner.frontend_factory(variant, None),
    )


def budget_stop(variant: str, budget: int):
    """The watchdog dump and per-SM stats of a run stopped by ``budget``."""
    gpu = build_gpu(variant, max_cycles=budget)
    with pytest.raises(DeadlockError, match=f"max_cycles={budget}") as exc_info:
        gpu.run()
    return exc_info.value.dump, [sm.stats for sm in gpu.sms]


class TestCycleBudget:
    """``GPUConfig.max_cycles`` against real runs of every variant."""

    @pytest.mark.parametrize("variant", REGISTRY.names())
    def test_least_passing_budget_is_one_past_the_last_cycle(self, variant):
        ref_gpu = build_gpu(variant)
        ref = ref_gpu.run()

        gpu = build_gpu(variant, max_cycles=ref.cycles + 1)
        result = gpu.run()
        assert result.cycles == ref.cycles
        assert result.stats == ref.stats
        assert result.per_sm_stats == ref.per_sm_stats
        assert gpu.ctx.memory.words.tobytes() == ref_gpu.ctx.memory.words.tobytes()

        dump, _ = budget_stop(variant, ref.cycles)
        assert (dump["reason"], dump["cycle"]) == ("max_cycles", ref.cycles)

    @pytest.mark.parametrize("variant", REGISTRY.names())
    def test_budget_stop_is_at_the_budgeted_cycle(self, variant):
        """A mid-run stop raises at exactly the budgeted cycle, part way
        through the run."""
        full = build_gpu(variant).run()
        for frac in (0.25, 0.5, 0.75):
            budget = int(full.cycles * frac)
            dump, per_sm = budget_stop(variant, budget)
            assert (dump["reason"], dump["cycle"]) == ("max_cycles", budget)
            executed = sum(s.instructions_executed for s in per_sm)
            assert 0 < executed < full.stats.instructions_executed
