"""The parallel, cache-backed execution layer.

Covers the tentpole guarantees: result-cache hit/miss semantics and
invalidation, corrupted-entry recovery, the flat on-disk layout and
its maintenance, resuming an interrupted sweep by re-running it,
per-spec failure isolation (a ``VerificationError`` in one run never
aborts the sweep), serial and process-pool paths agreeing bit-for-bit,
and the cache-hit/wall-time observability carried by
:class:`SweepStats`.
"""

import dataclasses
import json
import os
import pickle
import time

import pytest

from repro.config import RunConfig, apply_overrides
from repro.harness import faults, parallel
from repro.harness.parallel import (
    FUNCTIONAL,
    SweepError,
    SweepStats,
    cache_key,
    cache_lookup,
    cache_path,
    run_specs,
)
from repro.harness.runner import VerificationError, WorkloadRunner
from repro.timing import small_config
from repro.variants import REGISTRY
from repro.workloads import build_workload

SPEC = RunConfig(abbr="LIB", variant="BASE", scale="tiny")


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run_one(spec, **kwargs):
    outcomes, stats = run_specs([spec], **kwargs)
    return outcomes[0], stats


class TestCache:
    def test_miss_then_hit_on_identical_spec(self, cache_dir):
        first, stats1 = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert first.ok and not first.cache_hit
        assert stats1.simulated == 1 and stats1.cache_hits == 0

        second, stats2 = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert second.ok and second.cache_hit
        assert stats2.simulated == 0 and stats2.cache_hits == 1
        assert second.result.cycles == first.result.cycles
        assert second.result.energy_pj == first.result.energy_pj

    def test_perturbed_specs_miss(self, cache_dir):
        base_key = cache_key(SPEC)
        perturbed = [
            RunConfig(abbr="FW", variant="BASE", scale="tiny"),
            RunConfig(abbr="LIB", variant="DARSIE", scale="tiny"),
            RunConfig(abbr="LIB", variant="BASE", scale="small"),
            RunConfig(abbr="LIB", variant="BASE", scale="tiny",
                      gpu=small_config(num_sms=2)),
        ]
        keys = {cache_key(s) for s in perturbed}
        assert base_key not in keys
        assert len(keys) == len(perturbed)

    def test_cache_version_bump_invalidates(self, cache_dir, monkeypatch):
        run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        monkeypatch.setattr(parallel, "CACHE_VERSION", parallel.CACHE_VERSION + 1)
        outcome, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and not outcome.cache_hit
        assert stats.simulated == 1

    def test_corrupted_entry_falls_back_to_live_run(self, cache_dir):
        first, _ = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        key = cache_key(SPEC)
        path = cache_path(SPEC, key, cache_dir)
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage, not a pickle")

        with pytest.warns(RuntimeWarning, match="corrupt"):
            outcome, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and not outcome.cache_hit
        assert stats.simulated == 1
        assert stats.cache_read_failures == 1  # counted, not swallowed
        assert outcome.result.cycles == first.result.cycles
        # The live run repaired the entry.
        hit, stats2 = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert hit.cache_hit
        assert stats2.cache_read_failures == 0

    def test_wrong_key_payload_is_a_miss(self, cache_dir):
        run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        key = cache_key(SPEC)
        path = cache_path(SPEC, key, cache_dir)
        with open(path, "wb") as fh:
            pickle.dump({"key": "someone-else", "result": "bogus"}, fh)
        outcome, _ = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and not outcome.cache_hit

    def test_no_cache_never_touches_disk(self, tmp_path):
        directory = tmp_path / "cache"
        outcome, _ = run_one(SPEC, cache_dir=str(directory), use_cache=False)
        assert outcome.ok
        assert not directory.exists()

    def test_clear_cache(self, cache_dir):
        run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert parallel.clear_cache(cache_dir) == 1
        outcome, _ = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert not outcome.cache_hit

    def test_clear_cache_removes_leaked_tmp_files(self, cache_dir):
        """Interrupted atomic writes leave *.pkl.tmp.<pid> files behind;
        clear_cache must remove them too, not just finished entries."""
        run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        leak = os.path.join(cache_dir, "LIB-BASE-tiny-0000.pkl.tmp.12345")
        open(leak, "wb").close()
        unrelated = os.path.join(cache_dir, "README.txt")
        open(unrelated, "w").close()
        assert parallel.clear_cache(cache_dir) == 2  # entry + tmp leak
        assert not os.path.exists(leak)
        assert os.path.exists(unrelated)  # never deletes foreign files

    def test_reap_stale_tmp_by_age(self, cache_dir):
        os.makedirs(cache_dir)
        fresh = os.path.join(cache_dir, "a.pkl.tmp.111")
        stale = os.path.join(cache_dir, "b.pkl.tmp.222")
        for p in (fresh, stale):
            open(p, "wb").close()
        old = time.time() - 2 * parallel.STALE_TMP_AGE_S
        os.utime(stale, (old, old))
        assert parallel.reap_stale_tmp(cache_dir) == 1
        assert os.path.exists(fresh) and not os.path.exists(stale)

    def test_unwritable_cache_is_counted_and_warned(self, tmp_path):
        """A cache dir that cannot be created degrades gracefully: the
        sweep succeeds, the failure is counted, and a warning fires."""
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory should be")
        with pytest.warns(RuntimeWarning, match="not writable"):
            outcome, stats = run_one(SPEC, cache_dir=str(blocker), use_cache=True)
        assert outcome.ok and not outcome.cache_hit
        assert stats.cache_write_failures == 1
        assert "1 cache writes failed" in stats.render()

    def test_writable_cache_reports_no_failures(self, cache_dir):
        _, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=True)
        assert stats.cache_write_failures == 0
        assert "cache writes failed" not in stats.render()


def store_entry(spec, cache_dir, result="payload") -> str:
    key = cache_key(spec)
    assert parallel._cache_store(cache_path(spec, key, cache_dir), key, result)
    return key


class TestFlatLayout:
    """Every entry sits directly in the cache directory."""

    def test_cache_path_is_in_the_cache_directory(self, cache_dir):
        path = cache_path(SPEC, cache_key(SPEC), cache_dir)
        assert os.path.dirname(path) == cache_dir

    def test_lookup_hits_stored_entry(self, cache_dir):
        key = store_entry(SPEC, cache_dir, result={"cycles": 123})
        assert os.listdir(cache_dir) == [os.path.basename(cache_path(SPEC, key, cache_dir))]
        assert cache_lookup(SPEC, key, cache_dir) == ({"cycles": 123}, "hit")

    def test_clear_cache_counts_nothing_when_empty(self, cache_dir):
        assert parallel.clear_cache(cache_dir) == 0


#: bytes at an entry's path that cannot be a cache entry: the ways
#: unpickling fails, plus well-formed pickles of the wrong shape
CORRUPT_ENTRIES = {
    "empty-file": b"",
    "truncated": pickle.dumps({"key": "k", "result": list(range(64))})[:24],
    "not-a-dict": pickle.dumps(["key", "result"]),
    "no-result-field": pickle.dumps({"key": "k"}),
    "missing-module": b"cno_such_module_for_cache_tests\nThing\n.",
    "missing-attribute": b"cos\nno_such_attribute_for_cache_tests\n.",
}


def _no_cache_dir(key, cache_dir):
    """Nothing on disk at all."""


def _empty_cache_dir(key, cache_dir):
    os.makedirs(cache_dir)


def _file_where_the_cache_dir_goes(key, cache_dir):
    with open(cache_dir, "wb") as fh:
        fh.write(b"not a directory")


def _entry_in_an_old_shard_directory(key, cache_dir):
    """Older checkouts filed entries under ``<key[:2]>/``; they are
    never read (the code fingerprint in every key makes them dead)."""
    shard = os.path.join(cache_dir, key[:2])
    assert parallel._cache_store(cache_path(SPEC, key, shard), key, "payload")


def _entry_under_another_key(key, cache_dir):
    assert parallel._cache_store(cache_path(SPEC, key, cache_dir), "0" * 64, "payload")


def _only_other_specs(key, cache_dir):
    store_entry(RunConfig(abbr="FWS", variant="BASE", scale="tiny"), cache_dir)


class TestCacheLookupStatuses:
    """``cache_lookup`` sorts every probe into hit, miss or corrupt: an
    absent or foreign entry is a miss, an unreadable one is corruption
    (which a sweep counts and re-simulates)."""

    @pytest.mark.parametrize("payload", list(CORRUPT_ENTRIES.values()),
                             ids=list(CORRUPT_ENTRIES))
    def test_unreadable_entry_is_corrupt(self, cache_dir, payload):
        key = cache_key(SPEC)
        path = cache_path(SPEC, key, cache_dir)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(payload)
        assert cache_lookup(SPEC, key, cache_dir) == (None, "corrupt")

    @pytest.mark.parametrize("layout", [
        _no_cache_dir,
        _empty_cache_dir,
        _file_where_the_cache_dir_goes,
        _entry_in_an_old_shard_directory,
        _entry_under_another_key,
        _only_other_specs,
    ], ids=lambda layout: layout.__name__.lstrip("_"))
    def test_missing_key_is_a_miss(self, cache_dir, layout):
        key = cache_key(SPEC)
        layout(key, cache_dir)
        assert cache_lookup(SPEC, key, cache_dir) == (None, "miss")


#: every kind of file the cache writes: entries and the atomic writer's
#: temp files
OWNED_NAMES = ("a.pkl", "a.pkl.tmp.123")

#: what an older checkout's mid-simulation checkpoints left in a cache
#: directory: checkpoints, their watchdog dumps and their temp files
LEGACY_NAMES = ("a.ckpt", "a.ckpt.deadlock.json", "a.ckpt.tmp.45")

#: look-alikes that cache maintenance must never delete
FOREIGN_NAMES = ("README.txt", "a.pkl.bak", "a.pkl.tmp.abc", "a.json") + LEGACY_NAMES

#: an mtime old enough for ``reap_stale_tmp`` to call a temp file leaked
STALE_AGE_S = 2 * parallel.STALE_TMP_AGE_S


def touch(path, age_s=0.0):
    with open(path, "wb") as fh:
        fh.write(b"x")
    if age_s:
        old = time.time() - age_s
        os.utime(path, (old, old))
    return path


class TestCacheMaintenance:
    """``clear_cache`` and ``reap_stale_tmp`` remove exactly the files
    the cache writes, in the cache directory itself."""

    @pytest.mark.parametrize("name", OWNED_NAMES)
    def test_clear_cache_removes_owned_files(self, cache_dir, name):
        os.makedirs(cache_dir)
        touch(os.path.join(cache_dir, name))
        assert parallel.clear_cache(cache_dir) == 1
        assert os.listdir(cache_dir) == []

    @pytest.mark.parametrize("name", FOREIGN_NAMES)
    def test_clear_cache_keeps_foreign_files(self, cache_dir, name):
        os.makedirs(cache_dir)
        touch(os.path.join(cache_dir, name))
        touch(os.path.join(cache_dir, "b.pkl"))
        assert parallel.clear_cache(cache_dir) == 1
        assert os.listdir(cache_dir) == [name]

    @pytest.mark.parametrize("name", ("a.pkl", "a.pkl.tmp.abc") + LEGACY_NAMES)
    def test_reaping_keeps_old_files_that_are_not_temps(self, cache_dir, name):
        """Only the cache's own temp files expire: an entry, or a file
        the cache no longer writes, is never reaped however old it is."""
        os.makedirs(cache_dir)
        path = touch(os.path.join(cache_dir, name), age_s=STALE_AGE_S)
        assert parallel.reap_stale_tmp(cache_dir) == 0
        assert os.path.exists(path)

    @pytest.mark.parametrize("dirname", ["ab", "abc", "AB", "zz", "0", "a.pkl"])
    def test_maintenance_never_enters_subdirectories(self, cache_dir, dirname):
        """Nothing below the cache directory is the cache's: not even
        ``ab/``, the shard directory an older checkout filed entries in."""
        other = os.path.join(cache_dir, dirname)
        os.makedirs(other)
        entry = touch(os.path.join(other, "a.pkl"))
        tmp = touch(os.path.join(other, "a.pkl.tmp.1"), age_s=STALE_AGE_S)
        assert parallel.reap_stale_tmp(cache_dir) == 0
        assert parallel.clear_cache(cache_dir) == 0
        assert os.path.exists(entry) and os.path.exists(tmp)

    def test_sweep_counts_reaped_tmp_files(self, cache_dir):
        os.makedirs(cache_dir)
        stale = touch(os.path.join(cache_dir, "dead.pkl.tmp.999"), age_s=STALE_AGE_S)
        _, stats = run_specs([SPEC], jobs=1, use_cache=True, cache_dir=cache_dir)
        assert stats.stale_tmp_reaped == 1
        assert "1 stale tmp file" in stats.render()
        assert not os.path.exists(stale)


class TestFailureIsolation:
    def test_verification_error_is_isolated(self, cache_dir, monkeypatch):
        """One failing oracle check doesn't abort the rest of the sweep."""
        real_build = WorkloadRunner.from_config

        def sabotaged(spec):
            runner = real_build(spec)
            if spec.abbr == "FW":
                runner.workload.check = lambda mem, params: False
            return runner

        monkeypatch.setattr(WorkloadRunner, "from_config", sabotaged)
        specs = [
            RunConfig(abbr="LIB", variant="BASE", scale="tiny"),
            RunConfig(abbr="FW", variant="BASE", scale="tiny"),
            RunConfig(abbr="FWS", variant="BASE", scale="tiny"),
        ]
        outcomes, stats = run_specs(specs, cache_dir=cache_dir, use_cache=True)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error_type == "VerificationError"
        assert "oracle" in outcomes[1].error
        assert stats.failures == 1 and stats.simulated == 2
        # Failures are reported per-run in the sweep observability...
        statuses = dict((label, status) for label, _, status in stats.per_run)
        assert statuses["FW/BASE@tiny"] == "fail"
        # ...and never cached: with the sabotage removed, the next run
        # re-simulates instead of replaying a poisoned entry.
        monkeypatch.undo()
        outcome, _ = run_one(specs[1], cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and not outcome.cache_hit

    def test_unknown_config_is_isolated(self, cache_dir):
        specs = [
            RunConfig(abbr="LIB", variant="NO-SUCH-CONFIG", scale="tiny"),
            RunConfig(abbr="LIB", variant="BASE", scale="tiny"),
        ]
        outcomes, stats = run_specs(specs, cache_dir=cache_dir)
        assert not outcomes[0].ok and outcomes[0].error_type == "KeyError"
        assert outcomes[1].ok
        assert stats.failures == 1

    def test_strict_raises_after_completing_sweep(self, cache_dir):
        specs = [
            RunConfig(abbr="LIB", variant="NO-SUCH-CONFIG", scale="tiny"),
            RunConfig(abbr="LIB", variant="BASE", scale="tiny"),
        ]
        with pytest.raises(SweepError) as excinfo:
            run_specs(specs, cache_dir=cache_dir, strict=True)
        assert len(excinfo.value.failures) == 1
        assert "NO-SUCH-CONFIG" in excinfo.value.failures[0].spec.label

    def test_cycle_budget_overrun_fails_once_and_leaves_no_file(self, cache_dir):
        """A watchdog ``DeadlockError`` fails the spec like any other
        error: never cached, and nothing else is written for it.  The
        same spec at the default budget then lands bit-identical to a
        clean run."""
        stuck = RunConfig(abbr="LIB", variant="DARSIE", scale="tiny",
                          gpu=small_config(num_sms=1, max_cycles=50))
        (out,), stats = run_specs([stuck], jobs=1, use_cache=True,
                                  cache_dir=cache_dir)
        assert not out.ok and out.error_type == "DeadlockError"
        assert out.error.startswith("exceeded max_cycles=50")
        assert stats.failures == 1
        assert cache_lookup(stuck, cache_key(stuck), cache_dir) == (None, "miss")
        assert [f for _, _, files in os.walk(cache_dir) for f in files] == []

        healthy = dataclasses.replace(stuck, gpu=small_config(num_sms=1))
        (clean,), _ = run_specs([healthy], jobs=1, use_cache=False)
        (out,), _ = run_specs([healthy], jobs=1, use_cache=True,
                              cache_dir=cache_dir)
        assert out.ok and not out.cache_hit
        assert out.result.cycles == clean.result.cycles
        assert out.result.energy_pj == clean.result.energy_pj
        assert out.result.sim.stats == clean.result.sim.stats

    def test_raising_runner_maps_to_verification_error(self):
        """The underlying runner still raises VerificationError itself."""
        runner = WorkloadRunner(build_workload("LIB", "tiny"))
        runner.workload.check = lambda mem, params: False
        with pytest.raises(VerificationError):
            runner.run("BASE")


@pytest.mark.skipif(not parallel.supports_fork(), reason="needs fork start method")
class TestProcessPool:
    def test_pool_matches_serial(self, cache_dir):
        specs = [
            RunConfig(abbr=a, variant=c, scale="tiny")
            for a in ("LIB", "FWS")
            for c in ("BASE", "DARSIE")
        ]
        serial, _ = run_specs(specs, jobs=1, use_cache=False)
        pooled, stats = run_specs(specs, jobs=2, use_cache=False)
        assert stats.jobs == 2
        for s, p in zip(serial, pooled):
            assert p.ok, p.error
            assert p.result.cycles == s.result.cycles
            assert p.result.energy_pj == s.result.energy_pj
            assert p.result.stats.instructions_executed == \
                s.result.stats.instructions_executed

    def test_pool_failure_isolation(self, cache_dir):
        specs = [
            RunConfig(abbr="LIB", variant="BASE", scale="tiny"),
            RunConfig(abbr="LIB", variant="NO-SUCH-CONFIG", scale="tiny"),
            RunConfig(abbr="FWS", variant="BASE", scale="tiny"),
        ]
        outcomes, stats = run_specs(specs, jobs=2, use_cache=False)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert stats.failures == 1

    def test_figure8_pool_render_is_byte_identical(self, cache_dir, monkeypatch):
        from repro.harness import experiments

        monkeypatch.setattr(parallel, "_defaults",
                            dict(jobs=1, use_cache=False, cache_dir=cache_dir))
        serial = experiments.figure8(scale="tiny", abbrs=("LIB", "FWS"))
        parallel.configure(jobs=2)
        pooled = experiments.figure8(scale="tiny", abbrs=("LIB", "FWS"))
        assert pooled.render() == serial.render()


class TestFunctionalSpecs:
    def test_functional_sweep_cached(self, cache_dir):
        spec = RunConfig(abbr="LIB", variant=FUNCTIONAL, scale="tiny")
        outcome, stats = run_one(spec, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok
        assert outcome.result.dimensionality == 1
        assert 0.0 <= outcome.result.levels.tb <= 1.0
        hit, stats2 = run_one(spec, cache_dir=cache_dir, use_cache=True)
        assert hit.cache_hit and stats2.simulated == 0
        assert hit.result.levels == outcome.result.levels


class TestResumeByRerun:
    """A sweep resumes by being run again: every spec that landed before
    an interrupt or a failure is a cache hit, only the rest simulate."""

    SPECS = (
        RunConfig(abbr="LIB", variant="BASE", scale="tiny"),
        RunConfig(abbr="FWS", variant="BASE", scale="tiny"),
        RunConfig(abbr="MM", variant="BASE", scale="tiny"),
    )

    def test_rerun_after_interrupt_simulates_only_unfinished_specs(
        self, cache_dir, monkeypatch
    ):
        clean, _ = run_specs(self.SPECS, jobs=1, use_cache=False)
        real_worker = parallel._worker

        def interrupting(spec):
            if spec.abbr == "FWS":
                raise KeyboardInterrupt()
            return real_worker(spec)

        monkeypatch.setattr(parallel, "_worker", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_specs(self.SPECS, jobs=1, cache_dir=cache_dir, use_cache=True)
        monkeypatch.setattr(parallel, "_worker", real_worker)

        outcomes, stats = run_specs(self.SPECS, jobs=1, cache_dir=cache_dir,
                                    use_cache=True)
        assert [status for _, _, status in stats.per_run] == ["hit", "sim", "sim"]
        assert stats.cache_hits == 1 and stats.simulated == 2
        for resumed, reference in zip(outcomes, clean):
            assert resumed.result.sim.stats == reference.result.sim.stats
            assert resumed.result.energy_pj == reference.result.energy_pj

    def test_rerun_after_a_failed_sweep_simulates_only_the_failure(
        self, cache_dir, monkeypatch
    ):
        def fail_second(label):
            if label == self.SPECS[1].label:
                raise RuntimeError(f"injected failure of {label}")

        with monkeypatch.context() as patch:
            patch.setattr(faults, "before_execute", fail_second)
            first, _ = run_specs(self.SPECS, jobs=2, cache_dir=cache_dir,
                                 use_cache=True)
        assert [o.ok for o in first] == [True, False, True]

        outcomes, stats = run_specs(self.SPECS, jobs=2, cache_dir=cache_dir,
                                    use_cache=True)
        assert [o.cache_hit for o in outcomes] == [True, False, True]
        assert stats.simulated == 1 and stats.failures == 0
        assert outcomes[0].result.sim.stats == first[0].result.sim.stats

    def test_rerun_of_a_finished_grid_simulates_nothing(self, cache_dir, monkeypatch):
        monkeypatch.setattr(parallel, "_defaults",
                            dict(jobs=1, use_cache=True, cache_dir=cache_dir))
        grid = (("LIB", "FWS"), ("BASE", "DARSIE"))
        first, stats1 = parallel.sweep(*grid, scale="tiny")
        again, stats2 = parallel.sweep(*grid, scale="tiny")
        assert (stats1.simulated, stats2.simulated, stats2.cache_hits) == (4, 0, 4)
        for run, result in first.items():
            assert again[run].sim.stats == result.sim.stats

    def test_functional_sweep_resumes_by_rerun(self, cache_dir, monkeypatch):
        monkeypatch.setattr(parallel, "_defaults",
                            dict(jobs=1, use_cache=True, cache_dir=cache_dir))
        done, _ = parallel.functional_sweep(("LIB",), scale="tiny")
        results, stats = parallel.functional_sweep(("LIB", "FWS"), scale="tiny")
        assert [status for _, _, status in stats.per_run] == ["hit", "sim"]
        assert results["LIB"].levels == done["LIB"].levels

    def test_rerun_without_the_cache_simulates_everything(self, cache_dir):
        run_specs(self.SPECS[:2], jobs=1, cache_dir=cache_dir, use_cache=True)
        _, stats = run_specs(self.SPECS[:2], jobs=1, cache_dir=cache_dir,
                             use_cache=False)
        assert stats.cache_hits == 0 and stats.simulated == 2


class TestEveryVariantCaches:
    """Every registered variant's result survives the cache round trip
    bit for bit, so a re-run resumes a sweep over any of them."""

    @pytest.mark.parametrize("variant", REGISTRY.names())
    def test_variant_result_round_trips_through_the_cache(self, cache_dir, variant):
        spec = RunConfig(abbr="LIB", variant=variant, scale="tiny")
        first, _ = run_one(spec, jobs=1, cache_dir=cache_dir, use_cache=True)
        assert first.ok, first.error
        again, stats = run_one(spec, jobs=1, cache_dir=cache_dir, use_cache=True)
        assert again.cache_hit and stats.simulated == 0
        assert again.result.config_name == variant
        assert again.result.sim.stats == first.result.sim.stats
        assert again.result.energy_pj == first.result.energy_pj


class TestSpecPlumbing:
    def test_specs_are_picklable(self):
        from repro.core import DarsieConfig

        spec = RunConfig(abbr="MM", variant="DARSIE-ports4", scale="tiny",
                         gpu=small_config(num_sms=2),
                         darsie=DarsieConfig(skip_ports=4))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.label == "MM/DARSIE-ports4@tiny"

    def test_darsie_variant_roundtrip(self, cache_dir):
        from repro.core import DarsieConfig

        spec = RunConfig(abbr="FWS", variant="DARSIE-ports1", scale="tiny",
                         darsie=DarsieConfig(skip_ports=1))
        outcome, _ = run_one(spec, cache_dir=cache_dir, use_cache=True)
        assert outcome.ok and outcome.result.config_name == "DARSIE-ports1"
        # Variant knobs are part of the cache key.
        other = RunConfig(abbr="FWS", variant="DARSIE-ports1", scale="tiny",
                          darsie=DarsieConfig(skip_ports=2))
        assert cache_key(other) != cache_key(spec)

    def test_last_sweep_stats_exposed(self, cache_dir):
        _, stats = run_one(SPEC, cache_dir=cache_dir, use_cache=False)
        assert parallel.last_sweep_stats() is stats
        assert "1 runs" in stats.render()
        assert [label for label, _, _ in stats.per_run] == ["LIB/BASE@tiny"]


class TestCanonicalCacheKeys:
    """Cache keys are derived from the canonical RunConfig serialization:
    they change iff the canonical form changes — in both directions."""

    def test_key_unchanged_when_canonical_form_identical(self):
        # The default GPU and an explicit copy of it are the same run:
        # same canonical dict, same key.
        implicit = RunConfig(abbr="LIB", variant="BASE", scale="tiny")
        explicit = RunConfig(abbr="LIB", variant="BASE", scale="tiny",
                             gpu=small_config(num_sms=1))
        assert implicit.canonical_json() == explicit.canonical_json()
        assert cache_key(implicit) == cache_key(explicit)

    def test_key_changes_when_canonical_form_changes(self):
        base = RunConfig(abbr="LIB", variant="BASE", scale="tiny")
        tweaked = apply_overrides(base, {"gpu.l1_lines": 512})
        assert base.canonical_json() != tweaked.canonical_json()
        assert cache_key(base) != cache_key(tweaked)

    def test_explicit_darsie_defaults_are_a_different_run(self):
        from repro.core import DarsieConfig

        implicit = RunConfig(abbr="MM", variant="DARSIE", scale="tiny")
        explicit = RunConfig(abbr="MM", variant="DARSIE", scale="tiny",
                             darsie=DarsieConfig())
        assert implicit.canonical_json() != explicit.canonical_json()
        assert cache_key(implicit) != cache_key(explicit)


def _fail(label_idx, error_type="VerificationError"):
    from repro.harness.parallel import RunOutcome

    spec = RunConfig(abbr="MM", variant=f"VARIANT-{label_idx}", scale="tiny")
    return RunOutcome(spec=spec, result=None, error="boom", error_type=error_type)


class TestSweepErrorMessage:
    def test_five_or_fewer_failures_are_listed_in_full(self):
        err = SweepError([_fail(i) for i in range(5)])
        message = str(err)
        assert message.startswith("5 run(s) failed")
        assert "more)" not in message
        for i in range(5):
            assert f"MM/VARIANT-{i}@tiny" in message

    def test_overflow_failures_are_truncated_with_a_count(self):
        err = SweepError([_fail(i) for i in range(7)])
        message = str(err)
        assert message.startswith("7 run(s) failed")
        assert "(+2 more)" in message
        assert "MM/VARIANT-4@tiny" in message
        assert "MM/VARIANT-5@tiny" not in message
        assert len(err.failures) == 7  # the full list still rides along


#: (SweepStats field, a nonzero value, how the `[sweep]` line reports it)
REPORTED_COUNTERS = [
    ("stale_tmp_reaped", 3, "3 stale tmp files reaped"),
    ("pool_restarts", 1, "1 pool restarts"),
    ("cache_read_failures", 1, "1 corrupt cache reads"),
    ("cache_write_failures", 1, "1 cache writes failed"),
]


class TestSweepStatsReporting:
    @pytest.mark.parametrize("name,value,text", REPORTED_COUNTERS,
                             ids=[row[0] for row in REPORTED_COUNTERS])
    def test_render_reports_a_counter_only_when_nonzero(self, name, value, text):
        quiet = SweepStats(runs=1)
        loud = dataclasses.replace(quiet, **{name: value})
        assert text in loud.render()
        assert text.split(" ", 1)[1] not in quiet.render()
        assert loud.to_dict()[name] == value

    def test_to_dict_is_json_and_names_every_field(self):
        """The --stats-dump payload: plain JSON, one key per counter."""
        stats = SweepStats(
            runs=2, cache_hits=1, simulated=1, pool_restarts=1,
            per_run=[("LIB/BASE@tiny", 0.5, "hit"), ("FWS/BASE@tiny", 1.25, "sim")],
        )
        data = json.loads(json.dumps(stats.to_dict()))
        assert set(data) == {f.name for f in dataclasses.fields(SweepStats)}
        assert data["per_run"] == [["LIB/BASE@tiny", 0.5, "hit"],
                                   ["FWS/BASE@tiny", 1.25, "sim"]]


class TestKeyboardInterrupt:
    def test_interrupt_still_flushes_partial_stats(self, monkeypatch):
        real_worker = parallel._worker

        def interrupting(spec):
            if spec.abbr == "FWS":
                raise KeyboardInterrupt()
            return real_worker(spec)

        monkeypatch.setattr(parallel, "_worker", interrupting)
        specs = [
            RunConfig(abbr="LIB", variant="BASE", scale="tiny"),
            RunConfig(abbr="FWS", variant="BASE", scale="tiny"),
            RunConfig(abbr="MM", variant="BASE", scale="tiny"),
        ]
        with pytest.raises(KeyboardInterrupt):
            run_specs(specs, jobs=1, use_cache=False)
        stats = parallel.last_sweep_stats()
        assert stats is not None
        assert stats.runs == 1  # the spec that landed before the interrupt
        assert [label for label, _, _ in stats.per_run] == ["LIB/BASE@tiny"]

    @pytest.mark.skipif(not parallel.supports_fork(), reason="needs fork start method")
    def test_interrupt_under_a_pool_kills_its_workers(self, monkeypatch):
        """Ctrl-C while specs are in flight propagates, and the pool's
        worker processes are terminated rather than left running."""
        workers = []
        real_terminate = parallel._terminate_pool

        def recording_terminate(pool):
            workers.extend(pool._processes.values())
            real_terminate(pool)

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt()

        monkeypatch.setattr(parallel, "_terminate_pool", recording_terminate)
        monkeypatch.setattr(parallel, "futures_wait", interrupted_wait)
        specs = [RunConfig(abbr=a, variant="BASE", scale="tiny")
                 for a in ("LIB", "FWS")]
        with pytest.raises(KeyboardInterrupt):
            run_specs(specs, jobs=2, use_cache=False)
        assert workers
        for proc in workers:
            proc.join(timeout=10)
            assert not proc.is_alive()
