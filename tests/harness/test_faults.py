"""A sweep's failure paths, provoked directly.

Every uncached spec passes its label through
:func:`repro.harness.faults.before_execute` just before it executes.
These tests patch that seam to raise or to kill its pool worker with
``os._exit``, make a cache write raise ``OSError``, and write garbage
over a stored entry.  They check what the sweep does about each: a
failing spec fails alone and runs once, a worker death fails the specs
in flight with it and costs one pool rebuild, cache faults are counted,
warned about and re-simulated, and a re-run after a faulted sweep
matches a clean one bit for bit.  Each runs serially and under a
2-worker pool where that applies; a serial ``os._exit`` would end the
test process itself.
"""

import errno
import json
import os

import pytest

from repro.config import RunConfig
from repro.harness import faults, parallel
from repro.harness.parallel import cache_key, cache_lookup, cache_path, run_specs

SPEC = RunConfig(abbr="LIB", variant="BASE", scale="tiny")
OTHER = RunConfig(abbr="FWS", variant="BASE", scale="tiny")
THIRD = RunConfig(abbr="MM", variant="BASE", scale="tiny")

needs_fork = pytest.mark.skipif(not parallel.supports_fork(),
                                reason="needs fork start method")

#: serial execution, and a 2-worker pool where the platform can fork
JOBS = [1, pytest.param(2, marks=needs_fork)]

#: bytes written over a stored entry: a pickle protocol header, then
#: junk, so reading fails inside unpickling
GARBAGE = b"\x80\x04garbage over a stored cache entry"


class InjectedFault(RuntimeError):
    """What the patched seam raises for a spec told to fail."""


class Seam:
    """Stand-in for ``faults.before_execute``.

    It appends every call to a log file, so calls made in pool workers
    are seen too, and it fails the labels it is told to: by raising, or
    by ending its process as a segfault or an OOM kill would.
    """

    def __init__(self, log):
        self.log = log
        self.raising = set()
        self.crashing = set()

    def __call__(self, *args, **kwargs):
        with open(self.log, "a") as fh:
            fh.write(json.dumps([args, kwargs]) + "\n")
        label = args[0]
        if label in self.crashing:
            os._exit(66)
        if label in self.raising:
            raise InjectedFault(f"injected fault for {label}")

    def reset(self):
        """Forget every call logged so far."""
        if os.path.exists(self.log):
            os.remove(self.log)

    def calls(self):
        """Every call so far as ``(args, kwargs)``."""
        if not os.path.exists(self.log):
            return []
        with open(self.log) as fh:
            return [(tuple(args), kwargs) for args, kwargs in map(json.loads, fh)]

    def labels(self):
        return [args[0] for args, _ in self.calls()]


@pytest.fixture
def seam(tmp_path, monkeypatch):
    hook = Seam(str(tmp_path / "seam.log"))
    monkeypatch.setattr(faults, "before_execute", hook)
    return hook


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


@pytest.fixture
def unwritable(monkeypatch):
    """Entry paths whose cache write fails: moving the written temp file
    into place raises ``OSError``, as on a full disk."""
    paths = set()
    real_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        if dst in paths:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    return paths


def entry(spec, cache_dir):
    return cache_path(spec, cache_key(spec), cache_dir)


def corrupt(spec, cache_dir):
    path = entry(spec, cache_dir)
    assert os.path.exists(path)
    with open(path, "wb") as fh:
        fh.write(GARBAGE)


def assert_identical(result, reference):
    assert result.cycles == reference.cycles
    assert result.energy_pj == reference.energy_pj
    assert result.sim.stats == reference.sim.stats


class TestSeam:
    """``perf/spans.py`` tags every span with the label it last saw pass
    this seam; if the contract breaks, traced benchmark runs lose their
    per-variant metrics without any error."""

    @pytest.mark.parametrize("jobs", JOBS)
    def test_called_once_per_uncached_spec_with_its_label(self, seam, cache_dir, jobs):
        run_specs([SPEC, OTHER], jobs=jobs, use_cache=True, cache_dir=cache_dir)
        assert sorted(seam.calls()) == [((OTHER.label,), {}), ((SPEC.label,), {})]

    @pytest.mark.parametrize("jobs", JOBS)
    def test_a_cache_hit_does_not_pass_the_seam(self, seam, cache_dir, jobs):
        run_specs([SPEC, OTHER], jobs=jobs, use_cache=True, cache_dir=cache_dir)
        _, stats = run_specs([SPEC, OTHER, THIRD], jobs=jobs, use_cache=True,
                             cache_dir=cache_dir)
        assert stats.cache_hits == 2
        assert seam.labels()[2:] == [THIRD.label]

    def test_looked_up_through_the_module_at_call_time(self, monkeypatch):
        """A wrapper installed by attribute after ``parallel`` was
        imported, the way ``perf/spans.py`` installs one, sees every
        spec."""
        assert "before_execute" not in vars(parallel)
        seen = []
        inner = faults.before_execute

        def tag(label, *args, **kwargs):
            seen.append(label)
            return inner(label, *args, **kwargs)

        monkeypatch.setattr(faults, "before_execute", tag)
        run_specs([SPEC, OTHER], jobs=1, use_cache=False)
        assert seen == [SPEC.label, OTHER.label]


class TestSpecFailure:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_a_raising_spec_fails_alone_and_runs_once(self, seam, jobs):
        seam.raising.add(SPEC.label)
        (failed, landed), stats = run_specs([SPEC, OTHER], jobs=jobs, use_cache=False)
        assert not failed.ok and failed.error_type == "InjectedFault"
        assert failed.error.startswith(f"injected fault for {SPEC.label}")
        assert landed.ok
        assert (stats.failures, stats.simulated, stats.pool_restarts) == (1, 1, 0)
        assert sorted(seam.labels()) == [OTHER.label, SPEC.label]


@needs_fork
class TestPoolFaultHandling:
    def test_a_worker_death_fails_the_specs_in_flight_and_rebuilds_once(
        self, seam, cache_dir
    ):
        """The crash takes down what flew with it; the spec queued
        behind them runs on the rebuilt pool, bit-identical to a serial
        clean run."""
        specs = [SPEC, OTHER, THIRD]
        clean, _ = run_specs(specs, jobs=1, use_cache=False)
        seam.reset()
        seam.crashing.add(SPEC.label)
        (crashed, beside, queued), stats = run_specs(
            specs, jobs=2, use_cache=True, cache_dir=cache_dir
        )
        assert not crashed.ok and crashed.error_type == "BrokenProcessPool"
        assert beside.ok or beside.error_type == "BrokenProcessPool"
        assert queued.ok
        assert_identical(queued.result, clean[2].result)
        assert stats.pool_restarts == 1
        assert "1 pool restarts" in stats.render()
        labels = seam.labels()
        assert labels.count(SPEC.label) == labels.count(THIRD.label) == 1

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


class TestCacheFaults:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_a_failed_write_is_counted_warned_and_resimulated(
        self, unwritable, cache_dir, jobs
    ):
        unwritable.add(entry(SPEC, cache_dir))
        with pytest.warns(RuntimeWarning, match="1 entry could not be stored"):
            outcomes, stats = run_specs([SPEC, OTHER], jobs=jobs, use_cache=True,
                                        cache_dir=cache_dir)
        assert all(o.ok for o in outcomes)
        assert stats.cache_write_failures == 1
        assert "1 cache writes failed" in stats.render()
        # Only the other entry landed, and no temp file was left behind.
        assert os.listdir(cache_dir) == [os.path.basename(entry(OTHER, cache_dir))]

        unwritable.clear()
        again, stats2 = run_specs([SPEC, OTHER], jobs=jobs, use_cache=True,
                                  cache_dir=cache_dir)
        assert [o.cache_hit for o in again] == [False, True]
        assert stats2.simulated == 1 and stats2.cache_write_failures == 0
        assert_identical(again[0].result, outcomes[0].result)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_a_corrupt_entry_is_counted_warned_and_resimulated(self, cache_dir, jobs):
        first, _ = run_specs([SPEC, OTHER], jobs=jobs, use_cache=True,
                             cache_dir=cache_dir)
        corrupt(SPEC, cache_dir)
        with pytest.warns(RuntimeWarning, match="had 1 corrupt entry"):
            again, stats = run_specs([SPEC, OTHER, THIRD], jobs=jobs, use_cache=True,
                                     cache_dir=cache_dir)
        assert [o.cache_hit for o in again] == [False, True, False]
        assert stats.cache_read_failures == 1 and stats.failures == 0
        assert "1 corrupt cache reads" in stats.render()
        assert_identical(again[0].result, first[0].result)
        # The re-simulation rewrote the entry.
        assert cache_lookup(SPEC, cache_key(SPEC), cache_dir)[1] == "hit"


class TestRerunAfterAFaultedSweep:
    """Three passes over one sweep: clean, faulted, and re-run without
    the faults against the faulted pass's cache, which is how a failed
    sweep is retried."""

    SPECS = tuple(RunConfig(abbr=a, variant=c, scale="tiny")
                  for a in ("LIB", "FWS") for c in ("BASE", "UV", "DARSIE"))

    @pytest.mark.parametrize("jobs", JOBS)
    def test_the_rerun_matches_a_clean_sweep(self, seam, unwritable, cache_dir, jobs):
        crash, beside, raising, unstored, corrupted, _ = self.SPECS
        clean, _ = run_specs(self.SPECS, jobs=jobs, use_cache=False)
        assert all(o.ok for o in clean)
        seam.reset()

        # The crash goes first, so only the spec submitted beside it can
        # fly with it; everything after runs on the rebuilt pool.
        doomed = {raising.label}
        if jobs > 1:
            seam.crashing.add(crash.label)
            doomed.add(crash.label)
        seam.raising.add(raising.label)
        unwritable.add(entry(unstored, cache_dir))
        with pytest.warns(RuntimeWarning, match="not writable"):
            faulted, stats = run_specs(self.SPECS, jobs=jobs, use_cache=True,
                                       cache_dir=cache_dir)
        for ref, out in zip(clean, faulted):
            if out.spec.label in doomed:
                assert not out.ok
            elif out.ok:
                assert_identical(out.result, ref.result)
            else:
                assert jobs > 1 and out.spec == beside
                assert out.error_type == "BrokenProcessPool"
        assert stats.pool_restarts == (1 if jobs > 1 else 0)
        assert stats.cache_write_failures == 1
        survivors = {o.spec.label for o in faulted if o.ok}
        assert {unstored.label, corrupted.label} <= survivors
        attempts = seam.labels()
        assert len(attempts) == len(set(attempts))  # nothing is retried

        seam.crashing.clear()
        seam.raising.clear()
        unwritable.clear()
        corrupt(corrupted, cache_dir)
        with pytest.warns(RuntimeWarning, match="had 1 corrupt entry"):
            rerun, rerun_stats = run_specs(self.SPECS, jobs=jobs, use_cache=True,
                                           cache_dir=cache_dir)
        assert rerun_stats.failures == 0
        assert {o.spec.label for o in rerun if o.cache_hit} == (
            survivors - {unstored.label, corrupted.label}
        )
        assert rerun_stats.cache_read_failures == 1
        for ref, out in zip(clean, rerun):
            assert_identical(out.result, ref.result)
