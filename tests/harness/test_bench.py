"""The perf-regression bench layer: report schema, gate semantics, CLI."""

import json
from pathlib import Path

import pytest

from repro.harness import bench
from repro.harness.bench import BenchEntry, BenchReport, compare, run_bench
from repro.harness.runner import WorkloadRunner
from repro.variants import REGISTRY
from repro.workloads import ALL_ABBRS, SCALES, build_workload

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _entry(abbr, config, cycles, wall):
    return BenchEntry(abbr=abbr, config=config, cycles=cycles, wall_s=[wall, wall * 1.1])


def _report(entries, scale="tiny"):
    return BenchReport(
        scale=scale, repeats=2, fingerprint="f" * 64,
        entries={f"{e.abbr}/{e.config}": e for e in entries},
    )


class TestReportSchema:
    def test_roundtrip(self, tmp_path):
        report = _report([_entry("LIB", "BASE", 1000, 0.25),
                          _entry("LIB", "DARSIE", 900, 0.30)])
        path = str(tmp_path / "BENCH_timing.json")
        report.write(path)
        loaded = BenchReport.load(path)
        assert loaded.scale == "tiny" and loaded.repeats == 2
        assert set(loaded.entries) == {"LIB/BASE", "LIB/DARSIE"}
        e = loaded.entries["LIB/BASE"]
        assert e.cycles == 1000
        assert e.wall_s_min == pytest.approx(0.25, abs=1e-5)

    def test_schema_fields_present(self, tmp_path):
        report = _report([_entry("LIB", "BASE", 1000, 0.25)])
        path = str(tmp_path / "b.json")
        report.write(path)
        data = json.loads(open(path).read())
        assert data["schema"] == bench.BENCH_SCHEMA
        assert {"scale", "repeats", "fingerprint", "total_wall_s_min", "entries"} <= set(data)
        entry = data["entries"]["LIB/BASE"]
        assert {"cycles", "wall_s_min", "wall_s_median", "cycles_per_sec", "repeats"} <= set(entry)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "entries": {}}))
        with pytest.raises(ValueError, match="schema"):
            BenchReport.load(str(path))


class TestCommittedReports:
    def test_every_committed_report_benches_the_figure8_matrix(self):
        """Each ``benchmarks/BENCH_*.json`` loads through the strict
        reader (schema, GPU diff) and benches exactly the registry's
        ``fig8`` variants over the Table 1 apps, as its config block says."""
        fig8 = REGISTRY.by_tag("fig8")
        keys = {f"{abbr}/{variant}" for abbr in ALL_ABBRS for variant in fig8}
        paths = sorted(BENCHMARKS.glob("BENCH_*.json"))
        assert paths, f"no BENCH_*.json under {BENCHMARKS}"
        for path in paths:
            report = BenchReport.load(str(path))
            block = json.loads(path.read_text())["config"]
            assert report.scale in SCALES and block["scale"] == report.scale, path.name
            assert block["variants"] == list(fig8), path.name
            assert set(report.entries) == keys, path.name


class TestCompareGate:
    def test_ok_within_tolerance(self):
        base = _report([_entry("LIB", "BASE", 1000, 0.20)])
        cur = _report([_entry("LIB", "BASE", 1000, 0.30)])
        out = compare(cur, base, tolerance=2.0)
        assert out.ok and out.total_ratio == pytest.approx(1.5)
        assert "OK" in out.render(2.0)

    def test_regression_fails(self):
        base = _report([_entry("LIB", "BASE", 1000, 0.10)])
        cur = _report([_entry("LIB", "BASE", 1000, 0.50)])
        out = compare(cur, base, tolerance=2.0)
        assert not out.ok and out.regressions
        assert "FAIL" in out.render(2.0)

    def test_missing_entry_fails(self):
        base = _report([_entry("LIB", "BASE", 1000, 0.1),
                        _entry("LIB", "DARSIE", 900, 0.1)])
        cur = _report([_entry("LIB", "BASE", 1000, 0.1)])
        out = compare(cur, base)
        assert not out.ok and out.missing == ["LIB/DARSIE"]

    def test_cycle_mismatch_excluded_from_per_entry_gate(self):
        """An entry simulating different work is flagged, not gated."""
        base = _report([_entry("LIB", "BASE", 1000, 0.1),
                        _entry("LIB", "DARSIE", 900, 0.1)])
        cur = _report([_entry("LIB", "BASE", 1000, 0.1),
                       _entry("LIB", "DARSIE", 950, 9.9)])   # 99x but different cycles
        out = compare(cur, base, tolerance=2.0)
        assert out.cycle_mismatches == ["LIB/DARSIE"]
        assert not out.regressions
        assert not out.ok            # total ratio still catches it
        assert "different simulation" in out.render(2.0)

    def test_sub_noise_floor_entries_not_gated_per_entry(self):
        """A ~10ms entry blipping 3x is scheduler noise, not a
        regression; only the total ratio may gate it."""
        base = _report([_entry("LIB", "BASE", 1000, 0.010),   # below floor
                        _entry("MM", "BASE", 5000, 1.000)])
        cur = _report([_entry("LIB", "BASE", 1000, 0.030),    # 3x blip
                       _entry("MM", "BASE", 5000, 1.100)])
        out = compare(cur, base, tolerance=2.0)
        assert out.ok and not out.regressions
        assert out.worst_key == "MM/BASE"   # floor'd entry not the headline
        # ...but a floor'd entry ballooning enough still trips the total.
        cur2 = _report([_entry("LIB", "BASE", 1000, 3.0),
                        _entry("MM", "BASE", 5000, 1.0)])
        assert not compare(cur2, base, tolerance=2.0).ok

    def test_new_extra_entries_are_ignored(self):
        base = _report([_entry("LIB", "BASE", 1000, 0.1)])
        cur = _report([_entry("LIB", "BASE", 1000, 0.1),
                       _entry("FW", "BASE", 500, 0.2)])
        assert compare(cur, base).ok


class TestRunBench:
    def test_times_one_workload(self):
        report = run_bench(scale="tiny", abbrs=("LIB",),
                           configs=("BASE", "DARSIE"), repeats=2)
        assert set(report.entries) == {"LIB/BASE", "LIB/DARSIE"}
        for e in report.entries.values():
            assert e.cycles > 0
            assert len(e.wall_s) == 2 and all(t > 0 for t in e.wall_s)
            assert e.wall_s_min <= e.wall_s_median
        assert len(report.fingerprint) == 64
        assert "LIB/BASE" in report.render()

    def test_deterministic_cycles_across_repeats(self):
        """Repeats re-time the same simulation; cycles must agree with a
        fresh bench run's."""
        a = run_bench(scale="tiny", abbrs=("FW",), configs=("BASE",), repeats=1)
        b = run_bench(scale="tiny", abbrs=("FW",), configs=("BASE",), repeats=2)
        assert a.entries["FW/BASE"].cycles == b.entries["FW/BASE"].cycles

    def test_times_the_variants_own_program(self):
        """DARM simulates the melded program, so its entry counts the
        cycles ``WorkloadRunner.run`` counts for it, not BASE's."""
        report = run_bench(scale="tiny", abbrs=("DIVEO",), configs=("BASE", "DARM"),
                           repeats=1)
        runner = WorkloadRunner(build_workload("DIVEO", "tiny"))
        assert report.entries["DIVEO/DARM"].cycles == runner.run("DARM").cycles == 361
        assert report.entries["DIVEO/BASE"].cycles == runner.run("BASE").cycles == 362

    def test_a_failing_simulate_propagates_at_once(self, monkeypatch):
        """A simulation is deterministic, so the bench never re-runs a
        failed one: the first error ends the bench."""
        calls = []

        def broken(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("injected failure")

        monkeypatch.setattr(bench, "simulate", broken)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_bench(scale="tiny", abbrs=("LIB", "FW"), configs=("BASE",),
                      repeats=3)
        assert len(calls) == 1


class TestCLI:
    def test_bench_subcommand_writes_report_and_gates(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "BENCH_timing.json")
        assert main(["bench", "LIB", "--scale", "tiny",
                     "--repeats", "1", "--out", out]) == 0
        report = BenchReport.load(out)
        assert "LIB/BASE" in report.entries
        # Gate against a baseline that makes the current run look 100x
        # faster: within the 2.0x tolerance whatever the host's noise.
        data = json.loads(open(out).read())
        for entry in data["entries"].values():
            entry["wall_s_min"] = entry["wall_s_min"] * 100.0
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(data))
        assert main(["bench", "LIB", "--scale", "tiny", "--repeats", "1",
                     "--out", out, "--baseline", str(baseline)]) == 0
        assert "bench gate: OK" in capsys.readouterr().out

    def test_bench_gate_failure_exit_code(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "cur.json")
        assert main(["bench", "LIB", "--scale", "tiny",
                     "--repeats", "1", "--out", out]) == 0
        # Doctor a baseline that makes the current run look 100x slower.
        data = json.loads(open(out).read())
        for entry in data["entries"].values():
            entry["wall_s_min"] = entry["wall_s_min"] / 100.0
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(data))
        rc = main(["bench", "LIB", "--scale", "tiny", "--repeats", "1",
                   "--out", out, "--baseline", str(baseline)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("make", [
        lambda path: None,  # no file at all (OSError)
        lambda path: path.write_text('{"schema": 1, "entries": {}}'),
        lambda path: path.write_text("not json"),  # ValueError
        lambda path: path.write_text('{"schema": %d}' % bench.BENCH_SCHEMA),  # KeyError
        lambda path: path.mkdir(),  # IsADirectoryError
    ], ids=["missing", "wrong-schema", "not-json", "no-entries", "directory"])
    def test_bad_baseline_is_a_usage_error_before_any_timing(
        self, tmp_path, monkeypatch, capsys, make
    ):
        from repro.__main__ import main

        def never(**kwargs):
            raise AssertionError("timed the matrix before checking the baseline")

        monkeypatch.setattr(bench, "run_bench", never)
        baseline = tmp_path / "baseline.json"
        make(baseline)
        out = tmp_path / "cur.json"
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "LIB", "--scale", "tiny", "--repeats", "1",
                  "--out", str(out), "--baseline", str(baseline)])
        assert exc_info.value.code == 2
        assert f"cannot load --baseline {baseline}" in capsys.readouterr().err
        assert not out.exists()
