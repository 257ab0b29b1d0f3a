"""Timing-model correctness: every workload, every frontend, verified.

These are the end-to-end guarantees behind every number the harness
reports: no elimination mechanism may change a single output word.
"""

import pytest

from repro.core import DarsieConfig
from repro.harness.runner import WorkloadRunner
from repro.workloads import ALL_ABBRS, build_workload

CONFIGS = ["BASE", "UV", "DAC-IDEAL", "DARSIE", "DARSIE-IGNORE-STORE",
           "DARSIE-NO-CF-SYNC", "SILICON-SYNC"]


@pytest.fixture(scope="module")
def runners():
    return {abbr: WorkloadRunner(build_workload(abbr, "tiny")) for abbr in ALL_ABBRS}


@pytest.mark.parametrize("abbr", ALL_ABBRS)
@pytest.mark.parametrize("config", CONFIGS)
def test_verified_under_config(runners, abbr, config):
    # WorkloadRunner.run raises VerificationError on any mismatch.
    result = runners[abbr].run(config)
    assert result.cycles > 0


@pytest.mark.parametrize("abbr", ["MM", "CONVTEX", "BIN"])
def test_starved_configurations(runners, abbr):
    """Tiny skip tables and rename freelists must stay correct."""
    runner = runners[abbr]
    for cfg in (
        DarsieConfig(rename_regs_per_tb=2),
        DarsieConfig(skip_entries_per_tb=1),
        DarsieConfig(skip_ports=1),
        DarsieConfig(sync_on_write=True),
    ):
        result = runner.run("DARSIE", cfg)
        assert result.cycles > 0


@pytest.mark.parametrize("abbr", ALL_ABBRS)
def test_darsie_skips_at_most_base_instructions(runners, abbr):
    base = runners[abbr].run("BASE")
    darsie = runners[abbr].run("DARSIE")
    assert darsie.stats.instructions_skipped <= base.stats.instructions_executed
    # Executed + skipped covers the same dynamic instruction stream.
    assert (
        darsie.stats.instructions_executed + darsie.stats.instructions_skipped
        == base.stats.instructions_executed
    )
