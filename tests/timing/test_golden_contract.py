"""The golden contract, and bank selection that does not depend on the
process.

The golden store (``tests/timing/data/golden.json``,
:mod:`repro.harness.golden`) records every :class:`SimStats` field of
every (workload, registered variant) pair at tiny scale, and of BASE,
DARSIE and DUAL-ISSUE under loose round-robin issue.  Any change to the
simulator that moves one of these counters is a semantic change to the
model, not an optimization, and must rewrite the store deliberately
with ``python -m repro golden``, which prints the specs that moved.
"""

import os
import zlib

import pytest

from repro.harness import golden
from repro.isa.instructions import stable_bank
from repro.workloads import ALL_ABBRS

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
