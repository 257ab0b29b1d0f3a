"""Wake-up/select: GTO issue and the frontends' per-cycle passes look
only at woken warps (DESIGN.md §4d).  The golden store pins that this
changes no statistic; these tests pin the mechanism itself."""

import dataclasses
import os
from unittest import mock

import pytest

from repro.core.darsie import DarsieFrontend
from repro.fuzz import load_spec
from repro.fuzz.oracles import NeverSleepFrontend, OracleFailure, oracle_never_sleep
from repro.harness.runner import WorkloadRunner
from repro.timing import simulate
from repro.timing.buffers import WakeQueue
from repro.timing.core import WarpRuntime
from repro.timing.stages import IssueStage, StagePipeline
from repro.timing.stats import SimStats
from repro.workloads import build_workload
from repro.workloads.registry import TABLE1

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


class _Warp:
    """The two fields :class:`WakeQueue` reads."""

    def __init__(self, age):
        self.age = age
        self.woken = False


class TestWakeQueue:
    def test_drains_each_queued_warp_once_in_age_order(self):
        queue = WakeQueue()
        warps = [_Warp(age) for age in (5, 1, 3)]
        for w in warps + warps:
            queue.revisit(w)
        assert [w.age for w in queue.drain()] == [1, 3, 5]
        assert not any(w.woken for w in warps)
        assert list(queue.drain()) == []

    def test_a_warp_woken_mid_pass_joins_it_only_if_it_comes_later(self):
        queue = WakeQueue()
        a, b, c, d = (_Warp(age) for age in range(4))
        queue.revisit(b)
        queue.revisit(c)
        seen = []
        for w in queue.drain():
            seen.append(w.age)
            if w is b:
                queue.revisit(d)  # later in TB-then-warp order: this pass
                queue.revisit(a)  # earlier: the next pass
                queue.revisit(b)  # the warp being visited: the next pass
        assert seen == [1, 2, 3]
        assert [w.age for w in queue.drain()] == [0, 1]


def test_gto_probes_only_woken_warps(monkeypatch):
    probes = []
    issue_from_warp = IssueStage._issue_from_warp

    def counted(self, cycle, wrt):
        probes.append(wrt)
        return issue_from_warp(self, cycle, wrt)

    monkeypatch.setattr(IssueStage, "_issue_from_warp", counted)
    stats = WorkloadRunner(build_workload("MM", "tiny")).run("BASE").stats
    # Probing every candidate warp each cycle takes 5,368 probes here,
    # 4.4 per issued instruction; sleeping warps take 1,688.
    assert len(probes) < 2 * stats.instructions_issued


#: the variants whose GTO bookkeeping is checked tick by tick: one and
#: two issue slots, and the two frontends that push zero-cost entries
BOOKKEEPING_VARIANTS = ("BASE", "DARSIE", "DUAL-ISSUE", "DAC-IDEAL")


@pytest.mark.parametrize("abbr", list(TABLE1))
def test_awake_and_stalled_lists_hold_after_every_tick(abbr, monkeypatch):
    """After every tick, each GTO scheduler's ``awake`` list is exactly
    its resident warps that are not asleep, in strictly increasing age,
    and its ``stalled`` set holds only sleeping warps with instructions
    buffered."""
    checked = []
    tick = StagePipeline.tick

    def checked_tick(self, cycle):
        activity = tick(self, cycle)
        issue = self.issue
        for sched, (awake, stalled) in enumerate(zip(issue.awake, issue.stalled)):
            ages = [w.age for w in awake]
            assert all(a < b for a, b in zip(ages, ages[1:])), (cycle, sched, ages)
            mine = [w for w in self.core.warps if w.scheduler_id == sched and not w.asleep]
            assert awake == mine, (cycle, sched)
            assert all(w.asleep and w.ibuffer.entries for w in stalled), (cycle, sched)
        checked.append(cycle)
        return activity

    monkeypatch.setattr(StagePipeline, "tick", checked_tick)
    runner = WorkloadRunner(build_workload(abbr, "tiny"))
    for variant in BOOKKEEPING_VARIANTS:
        mem, params = runner.workload.fresh()
        simulate(
            runner.simulation_program(variant),
            runner.workload.launch,
            mem,
            params=params,
            config=runner.gpu_config,
            frontend_factory=runner.frontend_factory(variant),
        )
        assert runner.workload.verify(mem, params), variant
    assert checked


def test_oracle_4_catches_a_missing_wake():
    spec = load_spec(os.path.join(CORPUS, "pin_store_bypass_wake.kernel.json"))
    oracle_never_sleep(spec)
    invalidate_loads = DarsieFrontend._invalidate_loads

    def without_wakes(self, tb_rt):
        with mock.patch.object(WarpRuntime, "wake", lambda wrt: None):
            invalidate_loads(self, tb_rt)

    with mock.patch.object(DarsieFrontend, "_invalidate_loads", without_wakes):
        with pytest.raises(OracleFailure, match="DARSIE-NO-CF-SYNC sync_wait_cycles"):
            oracle_never_sleep(spec)


#: the skip engine's variants; oracle 4 runs only the first and last
DARSIE_VARIANTS = ("DARSIE", "DARSIE-IGNORE-STORE", "DARSIE-NO-CF-SYNC")


@pytest.mark.parametrize("abbr", list(TABLE1))
def test_sleeping_skip_engine_matches_the_never_sleep_reference(abbr):
    """Fuzz oracle 4's invariant on the Table 1 kernels: every SimStats
    field of the run equals a run whose skip engine and GTO visit every
    warp on every tick."""
    runner = WorkloadRunner(build_workload(abbr, "tiny"))
    for variant in DARSIE_VARIANTS:
        factory = runner.frontend_factory(variant)
        mem, params = runner.workload.fresh()
        reference = simulate(
            runner.simulation_program(variant),
            runner.workload.launch,
            mem,
            params=params,
            config=runner.gpu_config,
            frontend_factory=lambda: NeverSleepFrontend(factory(), {}),
        ).stats
        stats = runner.run(variant).stats
        diffs = [
            f"{f.name}: run={getattr(stats, f.name)!r} reference={getattr(reference, f.name)!r}"
            for f in dataclasses.fields(SimStats)
            if getattr(stats, f.name) != getattr(reference, f.name)
        ]
        assert not diffs, f"{abbr}/{variant}: " + "; ".join(diffs[:6])


def test_a_follower_skip_is_decided_once(monkeypatch):
    """The skip engine visits a warp when its outcome can change and
    classifies it once per arrival at a skippable PC: a follower parked
    until LeaderWB skips on its release without a second probe."""
    visits = []
    classified = []
    drain = WakeQueue.drain
    classify = DarsieFrontend._classify

    def counted_drain(self):
        for wrt in drain(self):
            visits.append(wrt)
            yield wrt

    def counted_classify(self, *args):
        classified.append(args)
        return classify(self, *args)

    monkeypatch.setattr(WakeQueue, "drain", counted_drain)
    monkeypatch.setattr(DarsieFrontend, "_classify", counted_classify)
    stats = WorkloadRunner(build_workload("MM", "tiny")).run("DARSIE").stats
    arrivals = stats.follower_skips + stats.leaders_elected
    assert stats.follower_skips == 256 and stats.leaders_elected == 256
    # Re-classifying each parked follower after LeaderWB took 758
    # classifications and 1,812 wake-queue visits here: the queue held
    # every warp whose scoreboard, I-buffer or PC changed.
    assert len(classified) <= arrivals
    assert len(visits) <= 2 * arrivals
