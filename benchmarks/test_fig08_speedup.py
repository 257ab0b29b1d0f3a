"""Figure 8: speedup of UV / DAC-IDEAL / DARSIE / DARSIE-IGNORE-STORE.

Paper shape: on 2D benchmarks DARSIE (1.30) beats DAC-IDEAL (1.11) beats
UV (1.02); DARSIE-IGNORE-STORE is indistinguishable from DARSIE; on 1D
benchmarks DARSIE and DAC-IDEAL are roughly equal.  Absolute factors on
this substrate differ (scaled workloads, simplified memory system) but
the ordering and rough magnitudes must hold.
"""

import json
import os

import pytest
from conftest import SCALE, run_once

from repro.harness import experiments, parallel
from repro.variants import REGISTRY
from repro.workloads import ALL_ABBRS

#: the committed Figure-8 cycle table (``cycles`` column, ``small`` scale)
BENCH_TIMING = os.path.join(os.path.dirname(__file__), "BENCH_timing.json")


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


def test_figure8_cycles_match_the_committed_table():
    """Every Figure-8 cycle count equals ``BENCH_timing.json``'s.

    A speed-up must leave the simulation alone, so at the table's scale
    no count may move; a deliberate model change regenerates the table
    (``python -m repro bench --scale small --out
    benchmarks/BENCH_timing.json``).  Runs after :func:`test_figure8`,
    whose sweep has filled the result cache.
    """
    with open(BENCH_TIMING) as fh:
        table = json.load(fh)
    if SCALE != table["scale"]:
        pytest.skip(f"the cycle table is at {table['scale']} scale, not {SCALE}")
    configs = REGISTRY.by_tag("fig8")
    results, _ = parallel.sweep(ALL_ABBRS, configs, scale=SCALE)
    got = {f"{a}/{c}": results[a, c].cycles for a in ALL_ABBRS for c in configs}
    want = {key: entry["cycles"] for key, entry in table["entries"].items()}
    assert sorted(got) == sorted(want)
    moved = {key: (want[key], got[key]) for key in want if got[key] != want[key]}
    assert not moved, f"cycle counts moved (table, now): {moved}"
