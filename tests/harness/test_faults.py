"""Deterministic fault injection and the fault-tolerant sweep paths.

Exercises :mod:`repro.harness.faults` itself (plan semantics, the
env-var transport to pool workers) and the hardening it was built to
prove: retries with attempt accounting, quarantine after repeated
crashes, injected cache-write faults surfacing in ``SweepStats``, and
the ``chaos`` soak's end-to-end contract.
"""

import pytest

from repro.config import ExecPolicy
from repro.harness import faults as faultlib
from repro.harness import parallel
from repro.harness.parallel import RunSpec, cache_key, cache_path, run_specs

SPEC = RunSpec(abbr="LIB", config_name="BASE", scale="tiny")
OTHER = RunSpec(abbr="FWS", config_name="BASE", scale="tiny")


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


@pytest.fixture(autouse=True)
def no_leftover_plan():
    yield
    faultlib.uninstall()


def plan_with(*rules, hang_s=0.05):
    return faultlib.FaultPlan(rules=tuple(rules), hang_s=hang_s)


class TestFaultPlan:
    def test_rule_fires_on_listed_attempts_only(self):
        rule = faultlib.FaultRule(faultlib.TRANSIENT, "A/B@tiny", attempts=(1, 3))
        assert rule.fires("A/B@tiny", 1) and rule.fires("A/B@tiny", 3)
        assert not rule.fires("A/B@tiny", 2)
        assert not rule.fires("X/Y@tiny", 1)

    def test_empty_attempts_means_every_attempt(self):
        rule = faultlib.FaultRule(faultlib.CRASH, "A/B@tiny")
        assert all(rule.fires("A/B@tiny", n) for n in (1, 2, 7))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faultlib.FaultRule("meteor-strike", "A/B@tiny")

    def test_json_round_trip(self):
        plan = faultlib.random_plan(["A/B@tiny", "C/D@tiny", "E/F@tiny"], seed=3)
        clone = faultlib.FaultPlan.from_json(plan.to_json())
        assert clone == plan

    def test_random_plan_is_deterministic_and_order_insensitive(self):
        labels = ["A/B@tiny", "C/D@tiny", "E/F@tiny", "G/H@tiny"]
        a = faultlib.random_plan(labels, seed=7)
        b = faultlib.random_plan(list(reversed(labels)), seed=7)
        assert a == b
        assert faultlib.random_plan(labels, seed=8) != a
        # one distinct label per kind
        assigned = [r.label for r in a.rules]
        assert len(assigned) == len(set(assigned)) == min(len(labels), len(faultlib.KINDS))

    def test_default_chaos_matrix_gets_every_kind(self):
        """The chaos soak's default specs are enough to deal out every
        fault kind, so no kind is silently dropped from its plan."""
        from repro.harness.chaos import DEFAULT_ABBRS, DEFAULT_CONFIGS

        labels = [RunSpec(abbr=a, config_name=c, scale="tiny").label
                  for a in DEFAULT_ABBRS for c in DEFAULT_CONFIGS]
        plan = faultlib.random_plan(labels, seed=0)
        assert {r.kind for r in plan.rules} == set(faultlib.KINDS)

    def test_env_transport_reaches_child_decoder(self, monkeypatch):
        plan = faultlib.random_plan(["A/B@tiny"], seed=0)
        with plan.active():
            # A forked worker has the env var but not the module global.
            monkeypatch.setattr(faultlib, "_active", None)
            assert faultlib.active_plan() == plan
        assert faultlib.active_plan() is None


class TestSerialFaultHandling:
    def test_transient_fault_is_retried_and_counted(self):
        plan = plan_with(
            faultlib.FaultRule(faultlib.TRANSIENT, SPEC.label, attempts=(1,))
        )
        policy = ExecPolicy(max_retries=2, backoff_base_s=0.0)
        with plan.active():
            outcomes, stats = run_specs([SPEC], use_cache=False, policy=policy)
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert stats.retries == 1 and stats.failures == 0
        assert "1 retries" in stats.render()

    def test_permanent_fault_is_never_retried(self):
        plan = plan_with(faultlib.FaultRule(faultlib.PERMANENT, SPEC.label))
        policy = ExecPolicy(max_retries=5, backoff_base_s=0.0)
        with plan.active():
            outcomes, stats = run_specs([SPEC], use_cache=False, policy=policy)
        assert not outcomes[0].ok
        assert outcomes[0].error_type == "PermanentFault"
        assert outcomes[0].attempts == 1
        assert stats.retries == 0 and stats.failures == 1

    def test_repeated_crashes_quarantine_the_spec(self):
        plan = plan_with(faultlib.FaultRule(faultlib.CRASH, SPEC.label))
        policy = ExecPolicy(max_retries=5, backoff_base_s=0.0, quarantine_after=2)
        with plan.active():
            outcomes, stats = run_specs([SPEC, OTHER], use_cache=False, policy=policy)
        crashed, clean = outcomes
        assert not crashed.ok and crashed.quarantined
        assert crashed.error_type == "WorkerCrashed"  # serial stand-in for os._exit
        assert crashed.attempts == policy.quarantine_after
        assert clean.ok and not clean.quarantined
        assert stats.quarantined == [SPEC.label]
        assert "1 quarantined" in stats.render()
        assert SPEC.label in stats.detail()

    def test_injected_store_oserror_is_counted_and_warned(self, cache_dir):
        plan = plan_with(faultlib.FaultRule(faultlib.STORE_OSERROR, SPEC.label))
        with plan.active():
            with pytest.warns(RuntimeWarning, match="not writable"):
                outcomes, stats = run_specs(
                    [SPEC], use_cache=True, cache_dir=cache_dir
                )
        assert outcomes[0].ok
        assert stats.cache_write_failures == 1
        # Nothing was stored, so the next sweep re-simulates.
        outcomes2, stats2 = run_specs([SPEC], use_cache=True, cache_dir=cache_dir)
        assert not outcomes2[0].cache_hit and stats2.simulated == 1

    def test_injected_corruption_is_detected_on_next_read(self, cache_dir):
        plan = plan_with(faultlib.FaultRule(faultlib.CORRUPT_STORE, SPEC.label))
        with plan.active():
            outcomes, _ = run_specs([SPEC], use_cache=True, cache_dir=cache_dir)
        assert outcomes[0].ok
        path = cache_path(SPEC, cache_key(SPEC), cache_dir)
        with open(path, "rb") as fh:
            assert fh.read() == faultlib.CORRUPT_BYTES
        with pytest.warns(RuntimeWarning, match="corrupt"):
            outcomes2, stats2 = run_specs([SPEC], use_cache=True, cache_dir=cache_dir)
        assert outcomes2[0].ok and not outcomes2[0].cache_hit
        assert stats2.cache_read_failures == 1 and stats2.simulated == 1
        assert "1 corrupt cache reads" in stats2.render()


@pytest.mark.skipif(not parallel.supports_fork(), reason="needs fork start method")
class TestPoolFaultHandling:
    def test_hang_times_out_and_pool_recovers(self):
        hang = RunSpec(abbr="LIB", config_name="BASE", scale="tiny")
        plan = plan_with(
            faultlib.FaultRule(faultlib.HANG, hang.label), hang_s=30.0
        )
        policy = ExecPolicy(timeout_s=1.0, max_retries=0, backoff_base_s=0.0)
        with plan.active():
            outcomes, stats = run_specs(
                [hang, OTHER], jobs=2, use_cache=False, policy=policy
            )
        timed_out, clean = outcomes
        assert not timed_out.ok and timed_out.error_type == "Timeout"
        assert "wall-clock budget" in timed_out.error
        assert clean.ok
        assert stats.timeouts == 1 and stats.pool_restarts >= 1
        assert "1 timeouts" in stats.render()

    def test_submit_to_a_pool_that_broke_since_the_last_wait(self, monkeypatch):
        """A worker can die between a wait returning and the next
        submit; the refused submit rebuilds the pool instead of killing
        the sweep."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        real_submit = ProcessPoolExecutor.submit
        refused = []

        def submit_once_broken(self, *args, **kwargs):
            if not refused:
                refused.append(self)
                raise BrokenProcessPool("a worker died")
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_once_broken)
        outcomes, stats = run_specs([SPEC, OTHER], jobs=2, use_cache=False)
        assert [o.ok for o in outcomes] == [True, True]
        assert stats.pool_restarts == 1

    def test_chaos_soak_contract_holds(self):
        from repro.harness.chaos import chaos_soak

        report = chaos_soak(seed=0, jobs=2)
        assert report.ok, report.render()
        assert report.fault_stats.quarantined == report.plan.labels_for(faultlib.CRASH)
        assert report.fault_stats.pool_restarts >= 1
        assert report.resume_stats.cache_hits >= 1


class TestChaosSerial:
    def test_chaos_soak_serial_contract_holds(self):
        from repro.harness.chaos import chaos_soak

        report = chaos_soak(seed=1, jobs=1)
        assert report.ok, report.render()
        assert any("serially" in note for note in report.notes)

    def test_chaos_soak_reuses_its_workdir(self, tmp_path):
        """A second soak in the same workdir must not be served by the
        first one's cache, or no fault would fire."""
        from repro.harness.chaos import chaos_soak

        for _ in range(2):
            report = chaos_soak(seed=1, jobs=1, workdir=str(tmp_path))
            assert report.ok, report.render()
