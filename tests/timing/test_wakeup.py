"""Wake-up/select: GTO issue and the frontends' per-cycle passes look
only at woken warps (DESIGN.md §4d).  The golden store pins that this
changes no statistic; these tests pin the mechanism itself."""

import os
from unittest import mock

import pytest

from repro.core.darsie import DarsieFrontend
from repro.fuzz import load_spec
from repro.fuzz.oracles import OracleFailure, oracle_event_skip
from repro.harness.runner import WorkloadRunner
from repro.timing.buffers import WakeQueue
from repro.timing.core import WarpRuntime
from repro.timing.stages import IssueStage
from repro.workloads import build_workload

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


def test_oracle_4_catches_a_missing_wake():
    spec = load_spec(os.path.join(CORPUS, "pin_store_bypass_wake.kernel.json"))
    oracle_event_skip(spec)
    invalidate_loads = DarsieFrontend._invalidate_loads

    def without_wakes(self, tb_rt):
        with mock.patch.object(WarpRuntime, "wake", lambda wrt: None):
            invalidate_loads(self, tb_rt)

    with mock.patch.object(DarsieFrontend, "_invalidate_loads", without_wakes):
        with pytest.raises(OracleFailure, match="DARSIE-NO-CF-SYNC sync_wait_cycles"):
            oracle_event_skip(spec)
