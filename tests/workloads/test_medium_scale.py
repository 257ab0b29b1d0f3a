"""Medium-scale functional verification (opt-in: slower).

Run with ``REPRO_MEDIUM=1 pytest tests/workloads/test_medium_scale.py``.
The default test session covers ``tiny``; this guards the ``medium``
problem sizes used for closer-to-paper benchmark runs.
"""

import os

import pytest

from repro.simt import run_functional
from repro.workloads import ALL_ABBRS, build_workload

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_MEDIUM"),
    reason="medium-scale verification is opt-in (set REPRO_MEDIUM=1)",
)


@pytest.mark.parametrize("abbr", ALL_ABBRS)
def test_medium_functional(abbr):
    wl = build_workload(abbr, "medium")
    mem, params = wl.fresh()
    run_functional(wl.program, wl.launch, mem, params=params)
    assert wl.verify(mem, params)


@pytest.mark.parametrize("abbr", ["CONVTEX", "HS"])
def test_medium_darsie_timing(abbr):
    from repro.harness.runner import WorkloadRunner

    runner = WorkloadRunner(build_workload(abbr, "medium"))
    assert runner.run("DARSIE").cycles < runner.run("BASE").cycles
