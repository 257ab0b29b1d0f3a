"""Parallel, cache-backed execution of (workload × configuration) runs.

Every DARSIE figure and ablation is a sweep over independent, pure,
oracle-verified timing runs — ideal units for process-pool fan-out.
This module provides:

- sweeps over :class:`~repro.config.RunConfig` specs — plain, picklable
  data; the worker rebuilds the whole substrate in the child process
  through :meth:`WorkloadRunner.from_config
  <repro.harness.runner.WorkloadRunner.from_config>`, so nothing
  unpicklable (kernels, memory factories, frontend closures) ever
  crosses the process boundary;
- an on-disk result cache, one flat directory (``results/.cache/``)
  keyed by a deterministic hash of the kernel program plus the run's
  canonical :class:`~repro.config.RunConfig` serialization (two specs
  share an entry iff their canonical forms agree), invalidated by a
  cache version *and* a fingerprint of the simulator's own source code,
  so stale results can never survive a change to the timing model;
- one attempt per spec — runs are deterministic, so a failure recurs on
  every attempt and is recorded, never retried.  A hard worker death
  (``BrokenProcessPool``) fails the specs in flight with it and costs
  one pool rebuild; ``KeyboardInterrupt`` cancels futures, reaps
  workers and still flushes :func:`last_sweep_stats`;
- resume and retry by re-running — finished specs are already in the
  cache, so invoking the same sweep again simulates only the rest;
- per-run wall-time / cache-hit / failure observability via
  :class:`SweepStats`.

Every uncached spec passes its label through
:func:`repro.harness.faults.before_execute` just before it executes;
the tests patch that seam to provoke the failure paths.

The figure drivers in :mod:`repro.harness.experiments` are wired through
:func:`sweep` / :func:`functional_sweep`; ``python -m repro --jobs N``
and the benchmark suite (``REPRO_JOBS``) select the pool width.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis import redundancy_levels, taxonomy_breakdown
from repro.analysis.limit_study import LevelBreakdown
from repro.analysis.taxonomy_study import TaxonomyBreakdown
from repro.config import DEFAULT_GPU, RunConfig
from repro.harness import faults as faultlib
from repro.harness.runner import RunResult, WorkloadRunner
from repro.timing import GPUConfig
from repro.workloads import build_workload

#: Bump to invalidate every cached result (schema or semantics change).
#: 2: keys derived from the canonical RunConfig serialization.
CACHE_VERSION = 2

#: Pseudo-configuration name: functional trace analysis (Figures 1/2).
FUNCTIONAL = "FUNCTIONAL"

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")


# ---------------------------------------------------------------------------
# Job descriptors and outcomes
# ---------------------------------------------------------------------------


def RunSpec(abbr: str, config_name: str, scale: str = "small") -> RunConfig:
    """``RunConfig(abbr, variant=config_name, scale)``: the sweep's old
    descriptor, kept only for the benchmark scripts in ``perf/``, which
    build specs by this name and read ``spec.config_name``
    (:attr:`RunConfig.config_name`).  Nothing in the package calls it."""
    return RunConfig(abbr=abbr, variant=config_name, scale=scale)


@dataclass
class FunctionalResult:
    """Outcome of one :data:`FUNCTIONAL` (trace analysis) run."""

    levels: LevelBreakdown
    taxonomy: TaxonomyBreakdown
    dimensionality: int


@dataclass
class RunOutcome:
    """One spec's result — or its captured failure."""

    spec: RunConfig
    result: Optional[Union[RunResult, FunctionalResult]]
    error: Optional[str] = None
    error_type: Optional[str] = None
    wall_time_s: float = 0.0
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepStats:
    """Observability for one sweep: cache behaviour, failures, wall time."""

    runs: int = 0
    cache_hits: int = 0
    #: timing/functional simulations actually executed (cache misses)
    simulated: int = 0
    failures: int = 0
    #: cache entries that could not be written (read-only / full disk)
    cache_write_failures: int = 0
    #: cache entries present on disk but unreadable (corruption)
    cache_read_failures: int = 0
    #: times the process pool was rebuilt after a hard worker death
    pool_restarts: int = 0
    #: orphaned cache-write temp files reaped
    stale_tmp_reaped: int = 0
    wall_time_s: float = 0.0
    jobs: int = 1
    #: (spec label, seconds, "hit" | "sim" | "fail") in spec order
    per_run: List[Tuple[str, float, str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-data counters (the CI stats-dump artifact serializes
        this)."""
        return {
            "runs": self.runs,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "failures": self.failures,
            "cache_write_failures": self.cache_write_failures,
            "cache_read_failures": self.cache_read_failures,
            "pool_restarts": self.pool_restarts,
            "stale_tmp_reaped": self.stale_tmp_reaped,
            "wall_time_s": round(self.wall_time_s, 6),
            "jobs": self.jobs,
            "per_run": [list(r) for r in self.per_run],
        }

    def render(self) -> str:
        text = (
            f"[sweep] {self.runs} runs in {self.wall_time_s:.1f}s"
            f" (jobs={self.jobs}): {self.simulated} simulated,"
            f" {self.cache_hits} cache hits, {self.failures} failures"
        )
        if self.stale_tmp_reaped:
            text += f", {self.stale_tmp_reaped} stale tmp files reaped"
        if self.pool_restarts:
            text += f", {self.pool_restarts} pool restarts"
        if self.cache_read_failures:
            text += f", {self.cache_read_failures} corrupt cache reads"
        if self.cache_write_failures:
            text += f", {self.cache_write_failures} cache writes failed"
        return text


class SweepError(RuntimeError):
    """A strict sweep had failing specs (carried in :attr:`failures`)."""

    def __init__(self, failures: List[RunOutcome]):
        self.failures = failures
        summary = "; ".join(
            f"{o.spec.label}: {o.error_type}" for o in failures[:5]
        )
        extra = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        super().__init__(f"{len(failures)} run(s) failed: {summary}{extra}")


# ---------------------------------------------------------------------------
# Defaults (set by the CLI / benchmark conftest)
# ---------------------------------------------------------------------------

_defaults = {
    "jobs": 1,
    "use_cache": True,
    "cache_dir": None,
}

_last_sweep: Optional[SweepStats] = None


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> None:
    """Set process-wide defaults for subsequent sweeps."""
    if jobs is not None:
        _defaults["jobs"] = max(1, int(jobs))
    if use_cache is not None:
        _defaults["use_cache"] = bool(use_cache)
    if cache_dir is not None:
        _defaults["cache_dir"] = cache_dir


@contextmanager
def configured(**settings) -> Iterator[None]:
    """:func:`configure` for the duration of a ``with`` block; the
    previous defaults come back however the block exits."""
    saved = dict(_defaults)
    configure(**settings)
    try:
        yield
    finally:
        _defaults.update(saved)


def default_jobs() -> int:
    return int(_defaults["jobs"])


def cache_enabled() -> bool:
    return bool(_defaults["use_cache"])


def resolve_cache_dir(cache_dir: Optional[str] = None) -> str:
    return (
        cache_dir
        or _defaults["cache_dir"]
        or os.environ.get("REPRO_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )


def last_sweep_stats() -> Optional[SweepStats]:
    """Stats of the most recent sweep in this process."""
    return _last_sweep


def supports_fork() -> bool:
    return "fork" in get_all_start_methods()


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------

_fingerprint_memo: Dict[Tuple[str, str], str] = {}
_code_fingerprint_memo: Optional[str] = None


def _workload_fingerprint(abbr: str, scale: str) -> str:
    """Hash of the assembled kernel program and launch geometry."""
    key = (abbr, scale)
    if key not in _fingerprint_memo:
        wl = build_workload(abbr, scale)
        h = hashlib.sha256()
        h.update(f"{wl.abbr}|{wl.scale}|{wl.tb_dim}|{wl.dimensionality}".encode())
        lc = wl.launch
        h.update(
            f"|grid={tuple(lc.grid_dim)}|block={tuple(lc.block_dim)}"
            f"|warp={lc.warp_size}".encode()
        )
        h.update(f"|shared={wl.program.shared_words}|params={wl.program.params}".encode())
        for inst in wl.program.instructions:
            h.update(f"{inst.pc}:{inst}:{inst.target_pc}\n".encode())
        _fingerprint_memo[key] = h.hexdigest()
    return _fingerprint_memo[key]


def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package.

    Any edit to the simulator, compiler pass or workloads changes this
    fingerprint, so cached results can never outlive the code that
    produced them — the versioned-invalidation guarantee.
    """
    global _code_fingerprint_memo
    if _code_fingerprint_memo is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        _code_fingerprint_memo = h.hexdigest()
    return _code_fingerprint_memo


def cache_key(spec: RunConfig) -> str:
    """Deterministic content hash identifying one run's inputs.

    The run itself is identified *only* by its canonical
    :class:`RunConfig` serialization: two specs share a key iff their
    canonical dicts are equal (plus the cache version and the code /
    program fingerprints that scope every key).
    """
    parts = {
        "cache_version": CACHE_VERSION,
        "code": code_fingerprint(),
        "program": _workload_fingerprint(spec.abbr, spec.scale),
        "run": spec.to_dict(),
    }
    blob = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_slug(spec: RunConfig) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", f"{spec.abbr}-{spec.variant}-{spec.scale}")


def cache_path(spec: RunConfig, key: str, cache_dir: str) -> str:
    """Location of one cache entry, directly in the cache directory."""
    return os.path.join(cache_dir, f"{_cache_slug(spec)}-{key[:16]}.pkl")


def cache_lookup(spec: RunConfig, key: str, cache_dir: str) -> Tuple[Optional[object], str]:
    """Probe the spec's cache entry: ``(result, status)`` with status
    ``"hit"``, ``"miss"`` or ``"corrupt"``.

    A missing file or a key mismatch (version skew, foreign entry) is a
    plain miss; a file that exists but cannot be unpickled is corruption
    and is reported so the sweep can count and warn about it.  Only the
    open/unpickle step is guarded — and only with the exception types
    unpickling garbage is documented to raise — so programming errors in
    our own payload handling are never masked.
    """
    try:
        with open(cache_path(spec, key, cache_dir), "rb") as fh:
            payload = pickle.load(fh)
    except (FileNotFoundError, NotADirectoryError):
        return None, "miss"  # no entry (possibly no cache dir at all)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None, "corrupt"
    if not isinstance(payload, dict) or "result" not in payload:
        return None, "corrupt"
    if payload.get("key") != key:
        return None, "miss"
    return payload["result"], "hit"


#: temp-file suffix of the atomic cache writer (:func:`_cache_store`)
_TMP_RE = re.compile(r"\.pkl\.tmp\.\d+$")

#: tmp files older than this are considered leaked by a crashed sweep
STALE_TMP_AGE_S = 3600.0


def _cache_store(path: str, key: str, result) -> bool:
    """Write one cache entry atomically; returns False on failure.

    Caching is best-effort — the run itself already succeeded — but
    failures are reported to the caller so a read-only or full cache
    directory does not silently degrade every sweep to 0% hit rate.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = pickle.dumps({"key": key, "result": result})
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)  # atomic: concurrent sweeps never see partial files
        return True
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False


def reap_stale_tmp(cache_dir: Optional[str] = None, max_age_s: float = STALE_TMP_AGE_S) -> int:
    """Remove ``*.pkl.tmp.<pid>`` files leaked by crashed sweeps.

    A live sweep's tmp file exists only for the instant between write
    and rename, so anything older than ``max_age_s`` is garbage.
    Returns the number of files removed.
    """
    directory = resolve_cache_dir(cache_dir)
    try:
        names = os.listdir(directory)
    except OSError:
        return 0  # no cache directory, or a file in its place
    removed = 0
    now = time.time()
    for name in names:
        if not _TMP_RE.search(name):
            continue
        path = os.path.join(directory, name)
        try:
            if now - os.path.getmtime(path) >= max_age_s:
                os.unlink(path)
                removed += 1
        except OSError:
            pass
    return removed


def clear_cache(cache_dir: Optional[str] = None) -> int:
    """Delete every cache entry, including leaked ``*.pkl.tmp.<pid>``
    files from crashed sweeps; returns the number of files removed."""
    directory = resolve_cache_dir(cache_dir)
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if name.endswith(".pkl") or _TMP_RE.search(name):
            try:
                os.unlink(os.path.join(directory, name))
                removed += 1
            except OSError:
                pass
    return removed


# ---------------------------------------------------------------------------
# Worker entrypoint
# ---------------------------------------------------------------------------


def _execute_spec(spec: RunConfig) -> Union[RunResult, FunctionalResult]:
    runner = WorkloadRunner.from_config(spec)
    if spec.variant == FUNCTIONAL:
        trace = runner.functional_trace()
        return FunctionalResult(
            levels=redundancy_levels(trace),
            taxonomy=taxonomy_breakdown(trace),
            dimensionality=runner.workload.dimensionality,
        )
    return runner.run(spec.variant, spec.darsie)


def _worker(spec: RunConfig) -> tuple:
    """Run one spec, capturing any failure as data (never raises).

    The seam is looked up through its module on every call, so a
    replacement installed after import (a test, ``perf/spans.py``) sees
    every uncached spec.
    """
    start = time.perf_counter()
    try:
        faultlib.before_execute(spec.label)
        result = _execute_spec(spec)
        return ("ok", result, time.perf_counter() - start)
    except Exception as exc:
        return (
            "err",
            type(exc).__name__,
            f"{exc}\n{traceback.format_exc()}",
            time.perf_counter() - start,
        )


def _outcome_from_payload(spec: RunConfig, payload: tuple) -> RunOutcome:
    if payload[0] == "ok":
        _, result, elapsed = payload
        return RunOutcome(spec=spec, result=result, wall_time_s=elapsed)
    _, error_type, error, elapsed = payload
    return RunOutcome(
        spec=spec, result=None, error=error, error_type=error_type,
        wall_time_s=elapsed,
    )


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


@dataclass
class _Attempt:
    """One uncached spec and where its result is cached."""

    index: int
    spec: RunConfig
    key: Optional[str]
    path: Optional[str]


def _run_serial(
    pending: Sequence[_Attempt],
    record: Callable[[_Attempt, RunOutcome], None],
) -> None:
    """In-process execution, one spec after another."""
    for item in pending:
        record(item, _outcome_from_payload(item.spec, _worker(item.spec)))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: kill live workers, cancel queued work and
    reap the workers before returning.

    ``shutdown`` alone would block on a running worker, so the workers
    are killed first; reaching into ``_processes`` is the only way the
    stdlib exposes them, so the access is defensive.  The shutdown then
    waits for the pool's manager thread to reap them, so no worker
    outlives this call.
    """
    processes = list(getattr(pool, "_processes", {}).values() or [])
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


def _run_pool(
    pending: Sequence[_Attempt],
    jobs: int,
    stats: SweepStats,
    record: Callable[[_Attempt, RunOutcome], None],
) -> None:
    """Process-pool execution with at most ``jobs`` specs in flight.

    A worker that dies hard (segfault, OOM kill, ``os._exit``) breaks
    the pool: the stdlib fails every in-flight future with
    ``BrokenProcessPool`` and cannot say which spec killed it, so each
    of them is recorded as failed and the pool is rebuilt once for the
    specs still queued.  ``KeyboardInterrupt`` propagates, and the
    ``finally`` cancels queued futures and terminates workers so nothing
    leaks.
    """
    ctx = get_context("fork")
    width = min(jobs, len(pending))

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=width, mp_context=ctx)

    pool = new_pool()
    queue: deque = deque(pending)
    # future -> (item, pool it was submitted to).  The pool reference
    # distinguishes a *fresh* break from the echo of an old one: when a
    # pool dies, every future it held surfaces BrokenProcessPool, and
    # only the first such future per pool should trigger a rebuild.
    inflight: Dict[object, Tuple[_Attempt, ProcessPoolExecutor]] = {}

    def rebuild() -> None:
        nonlocal pool
        _terminate_pool(pool)
        pool = new_pool()
        stats.pool_restarts += 1

    def submit(item: _Attempt) -> None:
        try:
            future = pool.submit(_worker, item.spec)
        except BrokenProcessPool:
            # A worker died after the last wait returned.  The dead
            # pool's own futures still report the crash; this spec goes
            # to a fresh pool.
            rebuild()
            future = pool.submit(_worker, item.spec)
        inflight[future] = (item, pool)

    try:
        while queue or inflight:
            while queue and len(inflight) < width:
                submit(queue.popleft())
            done, _ = futures_wait(set(inflight), return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                item, future_pool = inflight.pop(future)
                try:
                    payload = future.result()
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool) and future_pool is pool:
                        broken = True
                    payload = (
                        "err",
                        type(exc).__name__,
                        f"worker process died: {exc!r}",
                        0.0,
                    )
                record(item, _outcome_from_payload(item.spec, payload))
            if broken:
                # Any still-inflight futures of the dead pool are already
                # failing and drain on the next pass without another
                # rebuild.
                rebuild()
    finally:
        _terminate_pool(pool)


def run_specs(
    specs: Sequence[RunConfig],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    strict: bool = False,
) -> Tuple[List[RunOutcome], SweepStats]:
    """Execute specs across a process pool, consulting the result cache.

    Returns outcomes in spec order plus a :class:`SweepStats`.  With
    ``strict=True`` a :class:`SweepError` is raised *after* every spec
    has been attempted, so one failure never hides the others' results.

    Each uncached spec runs exactly once.  Re-running a sweep is how it
    resumes after a kill and how a failure is retried: every spec that
    landed before is a cache hit, so only the rest are simulated.

    A ``KeyboardInterrupt`` mid-sweep cancels queued work, terminates
    pool workers, and still flushes partial stats to
    :func:`last_sweep_stats` before propagating.
    """
    global _last_sweep
    jobs = max(1, int(jobs if jobs is not None else _defaults["jobs"]))
    caching = bool(_defaults["use_cache"] if use_cache is None else use_cache)
    directory = resolve_cache_dir(cache_dir)

    start = time.perf_counter()
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    stats = SweepStats(jobs=jobs)
    pending: List[_Attempt] = []
    write_failures = 0

    def record(item: _Attempt, outcome: RunOutcome) -> None:
        nonlocal write_failures
        if outcome.ok and not outcome.cache_hit and caching and item.path:
            if not _cache_store(item.path, item.key, outcome.result):
                write_failures += 1
        outcomes[item.index] = outcome

    if caching:
        stats.stale_tmp_reaped += reap_stale_tmp(directory)

    for i, spec in enumerate(specs):
        key = cache_key(spec) if caching else None
        path = cache_path(spec, key, directory) if caching else None
        cached = None
        if caching:
            cached, status = cache_lookup(spec, key, directory)
            if status == "corrupt":
                stats.cache_read_failures += 1
        item = _Attempt(index=i, spec=spec, key=key, path=path)
        if cached is not None:
            record(item, RunOutcome(spec=spec, result=cached, cache_hit=True))
            continue
        pending.append(item)

    parallel_ok = jobs > 1 and len(pending) > 1 and supports_fork()
    try:
        if parallel_ok:
            _run_pool(pending, jobs, stats, record)
        else:
            _run_serial(pending, record)
    finally:
        # Flush observability even when interrupted mid-sweep: partial
        # stats are what a resumed invocation reasons about.
        if stats.cache_read_failures:
            n = stats.cache_read_failures
            warnings.warn(
                f"result cache in {directory!r} had {n} corrupt "
                f"entr{'y' if n == 1 else 'ies'} (re-simulated; entries rewritten)",
                RuntimeWarning,
                stacklevel=2,
            )
        if write_failures:
            warnings.warn(
                f"result cache in {directory!r} is not writable: "
                f"{write_failures} entr{'y' if write_failures == 1 else 'ies'} "
                "could not be stored (future sweeps will re-simulate)",
                RuntimeWarning,
                stacklevel=2,
            )
        final = [o for o in outcomes if o is not None]
        stats.runs = len(final)
        stats.cache_hits = sum(1 for o in final if o.cache_hit)
        stats.simulated = sum(1 for o in final if o.ok and not o.cache_hit)
        stats.failures = sum(1 for o in final if not o.ok)
        stats.cache_write_failures = write_failures
        stats.wall_time_s = time.perf_counter() - start
        stats.jobs = jobs if parallel_ok else 1
        stats.per_run = [
            (
                o.spec.label,
                o.wall_time_s,
                "hit" if o.cache_hit else ("sim" if o.ok else "fail"),
            )
            for o in final
        ]
        _last_sweep = stats

    if strict:
        failing = [o for o in final if not o.ok]
        if failing:
            raise SweepError(failing)
    return final, stats


def sweep(
    abbrs: Sequence[str],
    configs: Sequence[str],
    scale: str = "small",
    gpu_config: Optional[GPUConfig] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    strict: bool = True,
) -> Tuple[Dict[Tuple[str, str], RunResult], SweepStats]:
    """Fan out the (workload × configuration) grid; returns keyed results."""
    gpu = gpu_config or DEFAULT_GPU
    specs = [
        RunConfig(abbr=a, variant=c, scale=scale, gpu=gpu)
        for a in abbrs
        for c in configs
    ]
    outcomes, stats = run_specs(specs, jobs=jobs, use_cache=use_cache, strict=strict)
    results = {
        (o.spec.abbr, o.spec.variant): o.result for o in outcomes if o.ok
    }
    return results, stats


def functional_sweep(
    abbrs: Sequence[str],
    scale: str = "small",
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    strict: bool = True,
) -> Tuple[Dict[str, FunctionalResult], SweepStats]:
    """Fan out the functional-trace analyses behind Figures 1 and 2."""
    specs = [RunConfig(abbr=a, variant=FUNCTIONAL, scale=scale) for a in abbrs]
    outcomes, stats = run_specs(specs, jobs=jobs, use_cache=use_cache, strict=strict)
    return {o.spec.abbr: o.result for o in outcomes if o.ok}, stats
