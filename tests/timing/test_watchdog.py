"""The forward-progress watchdog.

The three ways a simulation can stop making progress (cycle budget, no
instruction retiring, idle with no wake event) must each raise a
structured :class:`DeadlockError` carrying a per-stage/per-warp dump.
The cycle budget ``GPUConfig.max_cycles`` is a pure guard: for every
variant it trips at exactly the budgeted cycle, whether the simulator
steps or skips idle cycles, and a run it lets finish is bit-identical
to one under the default budget.
"""

import json

import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, assemble
from repro.harness.runner import WorkloadRunner
from repro.timing import small_config
from repro.timing.gpu import GPU, DeadlockError
from repro.variants import REGISTRY
from repro.workloads import build_workload


class TestWatchdog:
    """The three no-forward-progress detectors."""

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
        gpu = self._wedge_gpu(watchdog_cycles=window, event_skip=False)
        # Wedge: the SM reports activity every tick but retires nothing.
        gpu.sms[0].tick = lambda cycle: 1
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

    def test_idle_no_wake_raises_promptly(self):
        """Zero activity with no scheduled wake provably repeats forever;
        the fast detector fires long before the stagnation window."""
        ticks = 40
        gpu = self._wedge_gpu(watchdog_idle_ticks=ticks, watchdog_cycles=100_000)
        gpu.sms[0].tick = lambda cycle: 0
        gpu.sms[0].wake_cycle = lambda: None
        with pytest.raises(DeadlockError, match="no wake event") as exc_info:
            gpu.run()
        assert exc_info.value.dump["reason"] == "idle_no_wake"
        assert exc_info.value.dump["cycle"] <= ticks + 2

    #: reason -> (config overrides, what the wedged SM's tick reports)
    WEDGES = {
        "max_cycles": ({"max_cycles": 200, "watchdog_cycles": 100_000}, 1),
        "no_instruction_executed": ({"watchdog_cycles": 100}, 1),
        "idle_no_wake": ({"watchdog_idle_ticks": 40}, 0),
    }

    @pytest.mark.parametrize("reason", list(WEDGES))
    def test_every_dump_survives_a_json_round_trip(self, reason):
        overrides, activity = self.WEDGES[reason]
        gpu = self._wedge_gpu(**overrides)
        gpu.sms[0].tick = lambda cycle: activity
        gpu.sms[0].wake_cycle = lambda: None
        with pytest.raises(DeadlockError) as exc_info:
            gpu.run()
        record = exc_info.value.to_dict()
        assert record["dump"]["reason"] == reason
        assert record["message"] == str(exc_info.value)
        assert json.loads(json.dumps(record)) == record  # JSON-native values only

    @pytest.mark.parametrize("reason,overrides", [
        ("max_cycles", {"max_cycles": 500, "watchdog_cycles": 100_000}),
        ("no_instruction_executed", {"watchdog_cycles": 300}),
    ], ids=["max_cycles", "no_instruction_executed"])
    def test_a_far_wake_never_skips_past_a_detector(self, reason, overrides):
        """The event skipper clamps its jump at the budget and at the end
        of the stagnation window, so a stuck run raises at the cycle it
        would have when stepping."""
        cycles = []
        for event_skip in (True, False):
            gpu = self._wedge_gpu(event_skip=event_skip, **overrides)
            gpu.sms[0].tick = lambda cycle: 0
            gpu.sms[0].wake_cycle = lambda: 1_000_000
            with pytest.raises(DeadlockError) as exc_info:
                gpu.run()
            assert exc_info.value.dump["reason"] == reason
            cycles.append(exc_info.value.dump["cycle"])
        skipping, stepping = cycles
        assert skipping == stepping < 1_000


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


def budget_stop(variant: str, budget: int, event_skip: bool):
    """The watchdog dump and per-SM stats of a run stopped by ``budget``."""
    gpu = build_gpu(variant, max_cycles=budget, event_skip=event_skip)
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

        dump, _ = budget_stop(variant, ref.cycles, event_skip=True)
        assert (dump["reason"], dump["cycle"]) == ("max_cycles", ref.cycles)

    @pytest.mark.parametrize("variant", REGISTRY.names())
    def test_budget_stop_is_the_same_stepping_or_skipping(self, variant):
        """A mid-run stop sees the same machine state either way: the
        skipper never jumps past the budget, and the idle cycles it
        jumps over are accounted for exactly."""
        cycles = build_gpu(variant).run().cycles
        for frac in (0.25, 0.5, 0.75):
            budget = int(cycles * frac)
            skipping = budget_stop(variant, budget, event_skip=True)
            stepping = budget_stop(variant, budget, event_skip=False)
            assert skipping == stepping
            assert skipping[0]["cycle"] == budget
