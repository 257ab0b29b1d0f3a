"""Figure 8: speedup of UV / DAC-IDEAL / DARSIE / DARSIE-IGNORE-STORE.

Paper shape: on 2D benchmarks DARSIE (1.30) beats DAC-IDEAL (1.11) beats
UV (1.02); DARSIE-IGNORE-STORE is indistinguishable from DARSIE; on 1D
benchmarks DARSIE and DAC-IDEAL are roughly equal.  Absolute factors on
this substrate differ (scaled workloads, simplified memory system) but
the ordering and rough magnitudes must hold.
"""

import os

import pytest
from conftest import SCALE, run_once

from repro.config import DEFAULT_GPU
from repro.harness import experiments, golden
from repro.variants import REGISTRY

#: the golden store, which pins every Figure-8 run at tiny and small
STORE = os.path.join(
    os.path.dirname(__file__), "..", "tests", "timing", "data", "golden.json"
)


def test_figure8(benchmark, archive):
    result = run_once(benchmark, experiments.figure8, scale=SCALE)
    archive("figure08_speedup", result.render())

    g2 = result.gmean_2d
    g1 = result.gmean_1d
    # 2D ordering: DARSIE > DAC-IDEAL > UV ~ BASE.
    assert g2["DARSIE"] > g2["DAC-IDEAL"] > g2["UV"] >= 0.99
    assert g2["DARSIE"] > 1.10, f"2D DARSIE gmean {g2['DARSIE']:.2f} should be a clear win"
    assert g2["UV"] < 1.05, "UV is fetch-limited and should barely help"
    # IGNORE-STORE ~= DARSIE (stores end register-use chains).
    assert abs(g2["DARSIE-IGNORE-STORE"] - g2["DARSIE"]) < 0.05
    # 1D: DARSIE and DAC-IDEAL in the same band (both remove the uniform work).
    assert g1["DARSIE"] > 1.0 and g1["DAC-IDEAL"] > 1.0
    # Every workload/config verified against its oracle inside the runner.


def test_figure8_matches_the_golden_store():
    """Every Figure-8 run the golden store pins at this scale equals its
    entry in every ``SimStats`` field.

    A speed-up must leave the simulation alone; a deliberate model
    change rewrites the store (``python -m repro golden``).  The store
    pins no run at medium, so the check skips there.  Runs after
    :func:`test_figure8`, whose sweep has filled the result cache.
    """
    configs = REGISTRY.by_tag("fig8")
    runs = [
        run for run in golden.matrix()
        if run.scale == SCALE and run.gpu == DEFAULT_GPU and run.variant in configs
    ]
    if not runs:
        pytest.skip(f"the golden store pins no Figure-8 run at {SCALE} scale")
    lines = golden.compare(runs, STORE)
    assert not lines, "Figure-8 runs moved from the golden store:\n" + "\n".join(lines)
