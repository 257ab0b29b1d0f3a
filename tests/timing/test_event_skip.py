"""The bit-identical SimStats contract of the hot-path overhaul.

Two guarantees pin the timing model down after the performance work:

1. **Event-driven cycle skipping is invisible.**  ``GPUConfig.event_skip``
   jumps the cycle loop over provably idle stretches and replays the
   per-idle-cycle accounting in closed form; running with it disabled
   must produce *identical* :class:`SimStats` — every counter, not just
   cycles.

2. **The golden contract.**  The golden store
   (``tests/timing/data/golden.json``, :mod:`repro.harness.golden`)
   records every :class:`SimStats` field of every (workload, registered
   variant) pair at tiny scale, and of BASE, DARSIE and DUAL-ISSUE under
   loose round-robin issue.  Any change to the simulator that moves one
   of these counters is a semantic change to the model, not an
   optimization, and must rewrite the store deliberately with
   ``python -m repro golden``, which prints the specs that moved.
"""

import dataclasses
import os
import zlib

import pytest

from repro.harness import golden
from repro.harness.runner import WorkloadRunner
from repro.isa.instructions import stable_bank
from repro.timing import small_config
from repro.workloads import ALL_ABBRS, build_workload

STORE = os.path.join(os.path.dirname(__file__), "data", "golden.json")


class TestGoldenContract:
    """Every pinned tiny run reproduces the store exactly."""

    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_workload_matches_golden(self, abbr):
        _assert_matches_golden(abbr, "gto")

    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_workload_matches_lrr_golden(self, abbr):
        _assert_matches_golden(abbr, "lrr")


def _assert_matches_golden(abbr: str, policy: str) -> None:
    runs = [
        run for run in golden.matrix()
        if run.abbr == abbr and run.scale == "tiny"
        and run.gpu.scheduler_policy == policy
    ]
    lines = golden.compare(runs, STORE, use_cache=False)
    assert not lines, (
        "SimStats deviates from the golden store; if this change is "
        "intentional, run `python -m repro golden`:\n" + "\n".join(lines)
    )


class TestEventSkipEquivalence:
    """event_skip=True/False are bit-identical, per config family."""

    WORKLOADS = ("LIB", "CONVTEX", "MM")
    CONFIGS = ("BASE", "UV", "DAC-IDEAL", "DARSIE", "SILICON-SYNC")

    @pytest.mark.parametrize("abbr", WORKLOADS)
    def test_stats_identical_with_and_without_skipping(self, abbr):
        on = small_config(num_sms=1)
        off = dataclasses.replace(on, event_skip=False)
        assert on.event_skip and not off.event_skip
        runner_on = WorkloadRunner(build_workload(abbr, "tiny"), on)
        runner_off = WorkloadRunner(build_workload(abbr, "tiny"), off)
        for config in self.CONFIGS:
            a = runner_on.run(config).sim
            b = runner_off.run(config).sim
            assert a.cycles == b.cycles, f"{abbr}/{config}: cycle count diverged"
            assert a.stats.to_dict() == b.stats.to_dict(), (
                f"{abbr}/{config}: event-skip changed a counter"
            )

    def test_multi_sm_equivalence(self):
        on = small_config(num_sms=2)
        off = dataclasses.replace(on, event_skip=False)
        a = WorkloadRunner(build_workload("BP", "tiny"), on).run("DARSIE").sim
        b = WorkloadRunner(build_workload("BP", "tiny"), off).run("DARSIE").sim
        assert a.stats.to_dict() == b.stats.to_dict()


class TestStableBank:
    """Bank selection no longer depends on per-process string-hash salt."""

    def test_crc32_definition(self):
        assert stable_bank(("r", "acc"), 16) == zlib.crc32(b"r:acc") % 16

    def test_spread_and_range(self):
        banks = {stable_bank(("r", f"v{i}"), 8) for i in range(64)}
        assert banks <= set(range(8))
        assert len(banks) > 1  # not degenerate

    def test_cross_process_stability(self):
        """The counters derived from bank hashing are reproducible in a
        fresh interpreter (a different PYTHONHASHSEED)."""
        import subprocess
        import sys

        code = (
            "from repro.isa.instructions import stable_bank;"
            "print([stable_bank(('r', n), 16) for n in ('a','b','acc','out')])"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        ).stdout.strip()
        here = str([stable_bank(("r", n), 16) for n in ("a", "b", "acc", "out")])
        assert out == here
