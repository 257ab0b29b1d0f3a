"""Deterministic fault injection and the sweep's failure paths.

Exercises :mod:`repro.harness.faults` itself (plan semantics, the
env-var transport to pool workers) and the failure handling it was
built to prove: a failing or crashing spec fails alone (or, under a
pool, with the specs in flight beside it), a worker death costs one
pool rebuild, injected cache-write faults surface in ``SweepStats``,
and the ``chaos`` soak's end-to-end contract holds.
"""

import json

import pytest

from repro.harness import faults as faultlib
from repro.harness import parallel
from repro.harness.parallel import RunSpec, cache_key, cache_path, run_specs

SPEC = RunSpec(abbr="LIB", config_name="BASE", scale="tiny")
OTHER = RunSpec(abbr="FWS", config_name="BASE", scale="tiny")
THIRD = RunSpec(abbr="MM", config_name="BASE", scale="tiny")


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


@pytest.fixture(autouse=True)
def no_leftover_plan():
    yield
    faultlib.uninstall()


def plan_with(*rules):
    return faultlib.FaultPlan(rules=tuple(rules))


def assert_identical(result, reference):
    assert result.cycles == reference.cycles
    assert result.energy_pj == reference.energy_pj
    assert result.sim.stats == reference.sim.stats


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faultlib.FaultRule("meteor-strike", "A/B@tiny")

    @pytest.mark.parametrize("kind", ["hang", "transient"])
    def test_removed_kinds_are_rejected(self, kind):
        """A plan that names a deleted kind fails loudly, in code or in
        the environment variable, instead of injecting nothing."""
        with pytest.raises(ValueError, match="unknown fault kind"):
            faultlib.FaultRule(kind, "A/B@tiny")
        encoded = json.dumps({"rules": [{"kind": kind, "label": "A/B@tiny"}]})
        with pytest.raises(ValueError, match="unknown fault kind"):
            faultlib.FaultPlan.from_json(encoded)

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
    def test_permanent_fault_is_never_retried(self, monkeypatch):
        seen = []
        real_hook = faultlib.before_execute

        def counting_hook(label, in_child):
            seen.append(label)
            real_hook(label, in_child)

        monkeypatch.setattr(faultlib, "before_execute", counting_hook)
        plan = plan_with(faultlib.FaultRule(faultlib.PERMANENT, SPEC.label))
        with plan.active():
            outcomes, stats = run_specs([SPEC, OTHER], use_cache=False)
        failed, landed = outcomes
        assert not failed.ok and failed.error_type == "PermanentFault"
        assert landed.ok
        assert stats.failures == 1 and stats.simulated == 1
        assert seen == [SPEC.label, OTHER.label]  # one attempt each

    def test_a_crash_fails_only_that_spec(self):
        plan = plan_with(faultlib.FaultRule(faultlib.CRASH, SPEC.label))
        with plan.active():
            outcomes, stats = run_specs([SPEC, OTHER], use_cache=False)
        crashed, clean = outcomes
        assert not crashed.ok
        assert crashed.error_type == "WorkerCrashed"  # serial stand-in for os._exit
        assert clean.ok
        assert stats.failures == 1 and stats.pool_restarts == 0

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
    def test_a_worker_death_fails_the_specs_in_flight_and_rebuilds_once(
        self, cache_dir
    ):
        """The crash takes down what flew with it; the spec queued behind
        them runs on the rebuilt pool, and a re-run without the plan
        lands all three bit-identical to a serial clean run."""
        specs = [SPEC, OTHER, THIRD]
        clean, _ = run_specs(specs, jobs=1, use_cache=False)
        plan = plan_with(faultlib.FaultRule(faultlib.CRASH, SPEC.label))
        with plan.active():
            outcomes, stats = run_specs(specs, jobs=2, use_cache=True,
                                        cache_dir=cache_dir)
        crashed, _, queued = outcomes
        assert not crashed.ok and crashed.error_type == "BrokenProcessPool"
        assert {o.error_type for o in outcomes if not o.ok} == {"BrokenProcessPool"}
        assert queued.ok
        assert_identical(queued.result, clean[2].result)
        assert stats.pool_restarts == 1
        assert "1 pool restarts" in stats.render()

        again, stats2 = run_specs(specs, jobs=2, use_cache=True, cache_dir=cache_dir)
        assert all(o.ok for o in again)
        assert stats2.failures == 0 and stats2.pool_restarts == 0
        for out, ref in zip(again, clean):
            assert_identical(out.result, ref.result)

    def test_a_permanent_fault_in_a_worker_fails_only_that_spec(self):
        """The plan reaches the pool workers; an exception there is a
        plain per-spec failure and costs no pool rebuild."""
        plan = plan_with(faultlib.FaultRule(faultlib.PERMANENT, SPEC.label))
        with plan.active():
            outcomes, stats = run_specs([SPEC, OTHER], jobs=2, use_cache=False)
        failed, landed = outcomes
        assert not failed.ok and failed.error_type == "PermanentFault"
        assert landed.ok
        assert stats.failures == 1 and stats.pool_restarts == 0

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
        assert report.fault_stats.pool_restarts == 1
        assert report.resume_stats.failures == 0
        assert report.resume_stats.cache_hits >= 1


class TestChaosSerial:
    def test_chaos_soak_serial_contract_holds(self):
        from repro.harness.chaos import chaos_soak

        report = chaos_soak(seed=1, jobs=1)
        assert report.ok, report.render()
        assert any("serially" in note for note in report.notes)
        # Serially nothing flies beside the crash, so exactly the crash
        # and the permanent fault fail, and the one surviving
        # store-oserror spec fails its cache write.
        plan = report.plan
        doomed = plan.labels_for(faultlib.CRASH) + plan.labels_for(faultlib.PERMANENT)
        failed = [label for label, _, status in report.fault_stats.per_run
                  if status == "fail"]
        assert sorted(failed) == sorted(doomed)
        assert report.fault_stats.cache_write_failures == 1
        assert report.resume_stats.failures == 0

    def test_chaos_soak_reuses_its_workdir(self, tmp_path):
        """A second soak in the same workdir must not be served by the
        first one's cache, or no fault would fire."""
        from repro.harness.chaos import chaos_soak

        for _ in range(2):
            report = chaos_soak(seed=1, jobs=1, workdir=str(tmp_path))
            assert report.ok, report.render()
