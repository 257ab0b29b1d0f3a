"""Tests for the `python -m repro run` subcommand."""

import json
import os
import re

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.config import RunConfig
from repro.core import DarsieConfig
from repro.harness import parallel
from repro.harness.runner import WorkloadRunner
from repro.timing import small_config
from repro.workloads import build_workload


class TestRunSubcommand:
    def test_run_base(self, capsys):
        assert main(["run", "CONVTEX", "--scale", "tiny", "--config", "BASE"]) == 0
        out = capsys.readouterr().out
        assert "CONVTEX/BASE@tiny:\n" in out
        assert "speedup 1.00x" in out

    def test_run_darsie_with_json(self, capsys):
        assert main(["run", "HS", "--scale", "tiny", "--config", "DARSIE", "--json"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        data = json.loads(payload)
        assert data["frontend"] == "DARSIE"
        assert data["cycles"] > 0

    def test_run_with_trace(self, capsys):
        assert main(["run", "HS", "--scale", "tiny", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "pipeline trace" in out

    def test_run_requires_known_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "BOGUS"])

    def test_run_case_insensitive(self, capsys):
        assert main(["run", "hs", "--scale", "tiny", "--config", "UV"]) == 0
        assert "HS/UV@tiny:\n" in capsys.readouterr().out

    def test_run_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            main(["run", "MM", "--scale", "tiny", "--config", "DARSIE-TURBO"])


class TestSetOverrides:
    def test_run_with_darsie_override(self, capsys):
        assert main(["run", "MM", "--scale", "tiny", "--config", "DARSIE",
                     "--set", "darsie.skip_ports=4", "--no-cache"]) == 0
        assert "MM/DARSIE@tiny darsie.skip_ports=4:\n" in capsys.readouterr().out

    def test_darsie_override_needs_a_variant_that_takes_knobs(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "LIB", "--scale", "tiny", "--config", "BASE",
                  "--set", "darsie.skip_ports=4", "--no-cache"])
        assert exc_info.value.code == 2
        assert ("variant 'BASE' takes no darsie.* knobs; the variants that do: DARSIE, "
                "DARSIE-IGNORE-STORE, DARSIE-NO-CF-SYNC, DARSIE-SYNC-ON-WRITE"
                ) in capsys.readouterr().err

    def test_darsie_override_refines_the_variant_preset(self, capsys):
        assert main(["run", "LIB", "--scale", "tiny", "--config", "DARSIE-NO-CF-SYNC",
                     "--set", "darsie.skip_ports=4", "--json", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("LIB/DARSIE-NO-CF-SYNC@tiny darsie.skip_ports=4:\n")
        runner = WorkloadRunner(build_workload("LIB", "tiny"))
        want = runner.run("DARSIE-NO-CF-SYNC", DarsieConfig(no_cf_sync=True, skip_ports=4))
        assert json.loads(out[out.index("{"):])["stats"] == json.loads(want.sim.to_json())["stats"]

    def test_darsie_override_on_an_unknown_config_names_it(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "LIB", "--scale", "tiny", "--config", "NOSUCH",
                  "--set", "darsie.skip_ports=4", "--no-cache"])
        assert exc_info.value.code == 2
        assert "unknown configuration 'NOSUCH'" in capsys.readouterr().err

    def test_run_override_can_switch_scale(self, capsys):
        assert main(["run", "MM", "--config", "BASE",
                     "--set", "scale=tiny", "--no-cache"]) == 0
        assert "MM/BASE@tiny:\n" in capsys.readouterr().out

    def test_experiment_with_gpu_override(self, capsys):
        assert main(["figure8", "--scale", "tiny", "--apps", "MM",
                     "--set", "gpu.l1_lines=512", "--no-cache"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["figure8"],
        ["bench"],
        ["sweep", "gpu.l1_lines", "--values", "64,512"],
    ], ids=["figure8", "bench", "sweep"])
    def test_experiment_rejects_non_gpu_override(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv + ["--scale", "tiny", "--apps", "MM",
                         "--set", "darsie.skip_ports=4"])
        assert "only accepts gpu.* overrides" in capsys.readouterr().err

    def test_functional_experiment_rejects_gpu_override(self):
        # figure1 is a functional study: no gpu_config parameter to pass to
        with pytest.raises(SystemExit):
            main(["figure1", "--scale", "tiny", "--apps", "MM",
                  "--set", "gpu.l1_lines=512"])

    def test_bad_override_path_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "MM", "--scale", "tiny", "--set", "gpu.l1_linez=4"])

    def test_energy_model_is_not_a_setting(self, capsys):
        """There is one energy model, so there is no path to choose it."""
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "MM", "--scale", "tiny", "--set", "energy=pascal"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown override path 'energy'" in err
        assert "valid paths: abbr, variant, scale, gpu.<field>, darsie.<field>" in err

    def test_malformed_override_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "MM", "--scale", "tiny", "--set", "gpu.l1_lines"])


#: settings that describe no machine.  Each one once simulated something
#: else without a word (GTO for "fifo", ideal ports for 0 ports, one
#: cache line for every address), crashed with a ZeroDivisionError,
#: spun until the watchdog fired, or raised only at simulate time.
NO_MACHINE = [
    "gpu.scheduler_policy=fifo",
    "gpu.rename_ports=0",
    "gpu.version_table_ports=0",
    "gpu.line_bytes=0",
    "gpu.num_schedulers=0",
    "gpu.rf_banks=0",
    "gpu.l1_assoc=0",
    "gpu.dram_requests_per_cycle=0",
    "gpu.num_sms=0",
    "gpu.ibuffer_entries=0",
    "gpu.issue_width=0",
    "gpu.fetch_warps_per_cycle=0",
    "gpu.max_warps_per_sm=0",
    "gpu.max_tbs_per_sm=0",
    "gpu.fetch_width=0",
    "gpu.alu_latency=-1",
    "darsie.skip_ports=0",
]


class TestConfigsThatDescribeNoMachine:
    @pytest.mark.parametrize("setting", NO_MACHINE)
    def test_run_rejects_it_as_a_usage_error(self, setting, capsys):
        path = setting.partition("=")[0]
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "LIB", "--config", "DARSIE", "--scale", "tiny",
                  "--set", setting, "--no-cache"])
        assert exc_info.value.code == 2
        assert f"error: {path}: expected" in capsys.readouterr().err

    def test_run_rejects_a_threadblock_no_sm_can_hold(self, capsys):
        """LIB's threadblocks have 2 warps, which an SM of one warp can
        never hold: a usage error before cycle 0, naming the field."""
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "LIB", "--scale", "tiny", "--set", "gpu.max_warps_per_sm=1",
                  "--no-cache"])
        assert exc_info.value.code == 2
        assert ("error: gpu.max_warps_per_sm: 1 cannot hold one threadblock of 2 warps"
                in capsys.readouterr().err)

    def test_a_sweep_records_a_threadblock_no_sm_can_hold(self):
        spec = RunConfig(abbr="LIB", variant="DARSIE", scale="tiny",
                         gpu=small_config(1, max_warps_per_sm=1))
        (outcome,), stats = parallel.run_specs([spec], jobs=1, use_cache=False)
        assert stats.failures == 1 and outcome.error_type == "ConfigError"
        assert outcome.error.startswith("gpu.max_warps_per_sm: 1 cannot hold")

    @pytest.mark.parametrize("argv", [
        ["figure8", "--set", "gpu.num_sms=0"],
        ["sweep", "gpu.num_sms", "--values", "1,0"],
    ], ids=["figure8", "sweep"])
    def test_experiments_reject_it_before_simulating(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--scale", "tiny", "--apps", "LIB", "--no-cache"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert "error: gpu.num_sms: expected >= 1, got 0" in captured.err
        assert "[sweep]" not in captured.out


class TestAppsFlag:
    @pytest.mark.parametrize("driver", ["figure6", "figure9", "table1"])
    def test_driver_without_an_app_list_rejects_it(self, driver, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([driver, "--apps", "MM", "--scale", "tiny"])
        assert exc_info.value.code == 2
        assert f"{driver} does not take an app list (--apps)" in capsys.readouterr().err

    def test_all_passes_the_list_to_the_drivers_that_take_one(self, monkeypatch):
        seen = {}

        def with_apps(scale="small", abbrs=("MM", "LIB")):
            seen["with_apps"] = abbrs
            return "with apps"

        def without_apps(scale="small"):
            seen["without_apps"] = scale
            return "without apps"

        monkeypatch.setattr(cli, "EXPERIMENT_REGISTRY",
                            {"with_apps": with_apps, "without_apps": without_apps})
        assert main(["all", "--apps", "lib", "--scale", "tiny"]) == 0
        assert seen == {"with_apps": ("LIB",), "without_apps": "tiny"}


class TestAllWithGpuOverride:
    def test_passes_it_to_the_drivers_that_take_a_gpu_config(self, monkeypatch):
        seen = {}

        def timing(scale="small", abbrs=("MM",), gpu_config=None):
            seen["timing"] = (scale, abbrs, gpu_config)
            return "timing"

        def functional(scale="small", abbrs=("MM",)):
            seen["functional"] = (scale, abbrs)
            return "functional"

        def fixed():
            seen["fixed"] = ()
            return "fixed"

        monkeypatch.setattr(cli, "EXPERIMENT_REGISTRY",
                            {"timing": timing, "functional": functional, "fixed": fixed})
        assert main(["all", "--scale", "tiny", "--set", "gpu.l1_lines=512"]) == 0
        scale, abbrs, gpu_config = seen.pop("timing")
        assert (scale, abbrs, gpu_config.l1_lines) == ("tiny", ("MM",), 512)
        assert seen == {"functional": ("tiny", ("MM",)), "fixed": ()}


class TestSweepDefaults:
    """`main` sets the sweep defaults (`--jobs`, `--no-cache`) for its
    own command only, however the command ends."""

    def _defaults(self):
        return parallel.default_jobs(), parallel.cache_enabled()

    def test_restored_after_the_command_returns(self):
        before = self._defaults()
        assert main(["list", "--no-cache", "--jobs", "3"]) == 0
        assert self._defaults() == before

    def test_restored_after_a_usage_error(self):
        before = self._defaults()
        with pytest.raises(SystemExit):
            main(["figure6", "--apps", "MM", "--no-cache", "--jobs", "5"])
        assert self._defaults() == before


@pytest.mark.parametrize("argv", [["chaos", "--seed", "0"], ["config-check"]],
                         ids=["chaos", "config-check"])
def test_retired_command_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err


class TestSweepSubcommand:
    def test_sweep_darsie_field(self, capsys):
        assert main(["sweep", "darsie.skip_ports", "--values", "1,8",
                     "--apps", "MM", "--scale", "tiny", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "darsie.skip_ports" in out and "speedup" in out

    def test_sweep_gpu_field_rebases_per_point(self, capsys):
        assert main(["sweep", "gpu.l1_lines", "--values", "64,512",
                     "--apps", "MM", "--scale", "tiny", "--no-cache"]) == 0
        assert "gpu.l1_lines" in capsys.readouterr().out

    def test_sweep_needs_values(self):
        with pytest.raises(SystemExit):
            main(["sweep", "darsie.skip_ports"])

    def test_sweep_rejects_unknown_field(self):
        with pytest.raises(SystemExit):
            main(["sweep", "darsie.warp_speed", "--values", "1,2"])

    def test_sweep_runs_the_one_app_named(self):
        assert main(["sweep", "darsie.skip_ports", "--values", "2",
                     "--apps", "lib", "--scale", "tiny", "--no-cache"]) == 0
        labels = [label for label, _seconds, _how in parallel.last_sweep_stats().per_run]
        assert labels and all(label.startswith("LIB/") for label in labels)

    @pytest.mark.parametrize("apps, message", [
        ("MM,NOPE", "unknown apps: ['NOPE']"),
        ("LIB,MM", "sweep runs one app; got ['LIB', 'MM']"),
    ], ids=["unknown-app", "two-apps"])
    def test_sweep_app_list_is_a_usage_error(self, apps, message, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "darsie.skip_ports", "--values", "1,2", "--apps", apps,
                  "--scale", "tiny", "--no-cache"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[sweep]" not in captured.out


class TestListSubcommand:
    def test_list_shows_experiments_and_variants(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure8" in out and "DARSIE-SYNC-ON-WRITE" in out

    def test_bad_repro_jobs_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(SystemExit) as exc_info:
            main(["list"])
        assert exc_info.value.code == 2
        assert "argument --jobs: invalid int value: 'abc'" in capsys.readouterr().err

    def test_repro_jobs_sets_the_jobs_default(self, monkeypatch):
        seen = []
        monkeypatch.setattr(parallel, "configure",
                            lambda **kwargs: seen.append(kwargs["jobs"]))
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert main(["list"]) == 0
        assert main(["list", "--jobs", "2"]) == 0
        assert seen == [3, 2]  # an int, and --jobs wins over the environment


def sweep_counts(out):
    """(runs, simulated, cache hits) from the one `[sweep]` line."""
    (line,) = [text for text in out.splitlines() if text.startswith("[sweep]")]
    match = re.match(r"\[sweep\] (\d+) runs .*: (\d+) simulated, (\d+) cache hits", line)
    return tuple(int(n) for n in match.groups())


class TestRerunResumes:
    """Re-running a command is how an interrupted sweep resumes: the
    second run's `[sweep]` line shows the finished specs as cache hits."""

    ARGV = ["figure8", "--scale", "tiny", "--apps", "LIB"]

    @pytest.fixture(autouse=True)
    def fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "_defaults",
                            dict(parallel._defaults, cache_dir=str(tmp_path / "cache")))

    def test_second_run_is_served_from_the_cache(self, capsys):
        assert main(self.ARGV) == 0
        runs, simulated, hits = sweep_counts(capsys.readouterr().out)
        assert runs > 0 and (simulated, hits) == (runs, 0)
        assert main(self.ARGV) == 0
        assert sweep_counts(capsys.readouterr().out) == (runs, 0, runs)

    def test_clear_cache_forces_a_full_rerun(self, capsys):
        assert main(self.ARGV) == 0
        runs, _, _ = sweep_counts(capsys.readouterr().out)
        assert main(self.ARGV + ["--clear-cache"]) == 0
        out = capsys.readouterr().out
        assert f"[cache] removed {runs} cached result(s)" in out
        assert sweep_counts(out) == (runs, runs, 0)

    def test_stats_dump_records_the_resumed_sweep(self, tmp_path, capsys):
        assert main(self.ARGV) == 0
        dump = tmp_path / "stats.json"
        assert main(self.ARGV + ["--stats-dump", str(dump)]) == 0
        sweep = json.loads(dump.read_text())["last_sweep"]
        assert sweep["runs"] == sweep["cache_hits"] > 0
        assert sweep["simulated"] == 0
        assert {status for _, _, status in sweep["per_run"]} == {"hit"}


class TestStuckSweep:
    """A sweep whose runs exceed the cycle budget (`gpu.max_cycles`)
    exits with status 1 and one stderr line per failing spec."""

    ARGV = ["figure8", "--scale", "tiny", "--apps", "LIB",
            "--set", "gpu.max_cycles=50", "--no-cache"]

    def test_cycle_budget_overrun_exits_cleanly(self, capsys):
        assert main(self.ARGV) == 1
        summary, *failures = capsys.readouterr().err.splitlines()
        assert re.match(r"error: \d+ run\(s\) failed: "
                        r"LIB/BASE@tiny gpu.max_cycles=50: DeadlockError", summary)
        assert failures
        for line in failures:
            assert re.fullmatch(
                r"  LIB/\S+@tiny gpu.max_cycles=50: DeadlockError: exceeded max_cycles=50",
                line,
            ), line

    def test_stuck_sweep_subcommand_exits_cleanly(self, capsys):
        argv = ["sweep", "gpu.l1_lines", "--values", "128,256", "--apps", "LIB",
                "--scale", "tiny", "--set", "gpu.max_cycles=50", "--no-cache"]
        assert main(argv) == 1
        summary, *failures = capsys.readouterr().err.splitlines()
        assert summary.startswith("error: ")
        assert len(failures) == 4  # BASE and DARSIE at each of two points
        for line in failures:
            assert re.fullmatch(
                r"  LIB/\S+@tiny (gpu.l1_lines=128 )?gpu.max_cycles=50: "
                r"DeadlockError: exceeded max_cycles=50",
                line,
            ), line

    def test_stuck_single_run_exits_cleanly(self, capsys):
        """`run` simulates outside any sweep; its overrun is one line too."""
        assert main(["run", "LIB", "--config", "DARSIE", "--scale", "tiny",
                     "--set", "gpu.max_cycles=50", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert err == "error: DeadlockError: exceeded max_cycles=50\n"

    def test_stuck_sweep_leaves_the_cache_empty(self, tmp_path, capsys):
        """A failed run is neither cached nor dumped beside the cache."""
        cache = tmp_path / "cache"
        parallel.configure(cache_dir=str(cache))
        assert main(self.ARGV[:-1]) == 1
        assert [f for _, _, files in os.walk(cache) for f in files] == []
        # the same sweep at the default budget fills that cache
        assert main(self.ARGV[:5]) == 0
        assert [f for _, _, files in os.walk(cache) for f in files]

    def test_stuck_sweep_still_writes_its_stats_dump(self, tmp_path, capsys):
        dump = tmp_path / "stats.json"
        assert main(self.ARGV + ["--stats-dump", str(dump)]) == 1
        sweep = json.loads(dump.read_text())["last_sweep"]
        assert sweep["failures"] == sweep["runs"] > 0
        assert sweep["simulated"] == sweep["cache_hits"] == 0

    @pytest.mark.parametrize("flag", ["--max-cycles", "--checkpoint-interval",
                                      "--timeout", "--max-retries"])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(self.ARGV[:5] + [flag, "50"])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["policy.max_cycles",
                                      "policy.checkpoint_interval_cycles",
                                      "policy.timeout_s",
                                      "policy.max_retries",
                                      "policy.backoff_base_s",
                                      "policy.backoff_cap_s",
                                      "policy.quarantine_after"])
    def test_removed_policy_fields_are_usage_errors(self, path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "LIB", "--scale", "tiny", "--set", f"{path}=50"])
        assert exc_info.value.code == 2
        assert f"unknown override path {path!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["gpu.alu_throughput_per_scheduler",
                                      "gpu.sfu_throughput_per_scheduler",
                                      "gpu.operand_collector_slots",
                                      "gpu.max_outstanding_mem"])
    def test_removed_gpu_fields_are_usage_errors(self, path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "LIB", "--scale", "tiny", "--set", f"{path}=1"])
        assert exc_info.value.code == 2
        assert f"unknown override path {path!r}" in capsys.readouterr().err
