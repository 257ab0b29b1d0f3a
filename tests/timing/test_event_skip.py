"""The bit-identical SimStats contract of the hot-path overhaul.

Two guarantees pin the timing model down after the performance work:

1. **Event-driven cycle skipping is invisible.**  ``GPUConfig.event_skip``
   jumps the cycle loop over provably idle stretches and replays the
   per-idle-cycle accounting in closed form; running with it disabled
   must produce *identical* :class:`SimStats` — every counter, not just
   cycles.

2. **The golden contract.**  ``tests/timing/data/golden_tiny.json``
   records every :class:`SimStats` field of every (workload, registered
   variant) pair at tiny scale, and ``golden_tiny_lrr.json`` the same
   for BASE, DARSIE and DUAL-ISSUE under loose round-robin issue.  Any
   change to the simulator that moves one of these counters is a
   semantic change to the model, not an optimization, and must update
   the golden files deliberately:

       PYTHONPATH=src python -c "
       from tests.timing.test_event_skip import write_golden
       write_golden()"
"""

import dataclasses
import json
import os
import zlib

import pytest

from repro.config import gpu_to_dict
from repro.harness.runner import WorkloadRunner
from repro.isa.instructions import stable_bank
from repro.timing import small_config
from repro.variants import REGISTRY
from repro.workloads import ALL_ABBRS, build_workload

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
#: golden file -> (GPU config, variants pinned under it)
GOLDENS = {
    # every registered timing variant under the default GTO schedulers
    "golden_tiny.json": (small_config(num_sms=1), REGISTRY.names()),
    # the issue-order-sensitive variants under loose round-robin issue
    "golden_tiny_lrr.json": (
        small_config(num_sms=1, scheduler_policy="lrr"),
        ("BASE", "DARSIE", "DUAL-ISSUE"),
    ),
}


def canonical(stats) -> dict:
    """JSON-comparable form of a :class:`SimStats`: every field, with
    the ``Counter`` fields as sorted plain dicts."""
    d = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name == "energy_events":
            value = {e.value: n for e, n in value.items()}
        if isinstance(value, dict):
            value = dict(sorted(value.items()))
        d[f.name] = value
    return d


def golden_stats(name: str, abbr: str) -> dict:
    """``abbr/config -> canonical stats`` for every run ``name`` pins."""
    gpu, configs = GOLDENS[name]
    runner = WorkloadRunner(build_workload(abbr, "tiny"), gpu)
    return {f"{abbr}/{c}": canonical(runner.run(c).sim.stats) for c in configs}


def write_golden(data_dir: str = DATA_DIR) -> None:
    """Regenerate the golden files (intentional model changes only)."""
    for name, (gpu, configs) in GOLDENS.items():
        entries = {}
        for abbr in ALL_ABBRS:
            entries.update(golden_stats(name, abbr))
        payload = {
            "scale": "tiny",
            "gpu": gpu_to_dict(gpu),
            "configs": list(configs),
            "entries": entries,
            "note": "Canonical per-(workload, config) SimStats at tiny scale. "
                    "The timing simulator must reproduce these bit-for-bit; "
                    "regenerate only for intentional model changes "
                    "(tests/timing/test_event_skip.py explains how).",
        }
        with open(os.path.join(data_dir, name), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


class TestGoldenContract:
    """Every (workload, config) reproduces the committed stats exactly."""

    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_workload_matches_golden(self, abbr):
        _assert_matches_golden("golden_tiny.json", abbr)

    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_workload_matches_lrr_golden(self, abbr):
        _assert_matches_golden("golden_tiny_lrr.json", abbr)


def _assert_matches_golden(name: str, abbr: str) -> None:
    with open(os.path.join(DATA_DIR, name)) as fh:
        golden = json.load(fh)
    want = {k: v for k, v in golden["entries"].items() if k.split("/")[0] == abbr}
    got = golden_stats(name, abbr)
    assert sorted(got) == sorted(want), f"{name}: pinned runs of {abbr} changed"
    for key, stats in got.items():
        assert stats == want[key], (
            f"{name} {key}: SimStats deviates from the golden contract; "
            "if this change is intentional, regenerate the golden files "
            "(see module docstring)"
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
            assert canonical(a.stats) == canonical(b.stats), (
                f"{abbr}/{config}: event-skip changed a counter"
            )

    def test_multi_sm_equivalence(self):
        on = small_config(num_sms=2)
        off = dataclasses.replace(on, event_skip=False)
        a = WorkloadRunner(build_workload("BP", "tiny"), on).run("DARSIE").sim
        b = WorkloadRunner(build_workload("BP", "tiny"), off).run("DARSIE").sim
        assert canonical(a.stats) == canonical(b.stats)


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
