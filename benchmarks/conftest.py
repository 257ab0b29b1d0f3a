"""Shared fixtures for the per-figure reproduction benches.

Each bench runs its experiment once (``benchmark.pedantic`` with a
single round — these are reproduction drivers, not microbenchmarks),
prints the regenerated table/series, and, at the committed scale
(``small``), archives it under ``results/``.
"""

import os

import pytest

from repro.harness import parallel

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: The scale of the committed ``results/*.txt`` files.
COMMITTED_SCALE = "small"

#: Scale used by the reproduction benches (override with REPRO_SCALE).
SCALE = os.environ.get("REPRO_SCALE", COMMITTED_SCALE)

#: Worker processes for sweep fan-out (override with REPRO_JOBS).
JOBS = int(os.environ.get("REPRO_JOBS", "1") or 1)

#: Set REPRO_NO_CACHE=1 to force every bench to re-simulate.
USE_CACHE = not os.environ.get("REPRO_NO_CACHE")


@pytest.fixture(scope="session", autouse=True)
def _sweep_defaults():
    """Route every figure driver through the parallel, cached layer."""
    parallel.configure(
        jobs=JOBS,
        use_cache=USE_CACHE,
        cache_dir=os.path.join(RESULTS_DIR, ".cache"),
    )
    yield
    stats = parallel.last_sweep_stats()
    if stats is not None:
        print(f"\n{stats.render()}")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def archive(results_dir):
    """Print a rendered experiment; at the committed scale, also save it
    to results/<name>.txt (another scale would overwrite the committed
    file with numbers of a different size)."""

    def _archive(name: str, text: str):
        print()
        print(text)
        if SCALE != COMMITTED_SCALE:
            return None
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        return path

    return _archive


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
