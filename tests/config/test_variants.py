"""The variant registry: legacy views, tag queries, one-call extension."""

import json
import os
import re

import pytest

import repro
from repro.core import DarsieConfig, DarsieFrontend
from repro.harness import golden
from repro.variants import REGISTRY, Variant, VariantRegistry


def queried_tags():
    """Every tag a ``by_tag("...")`` call in the package asks for."""
    root = os.path.dirname(repro.__file__)
    tags = set()
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    tags.update(re.findall(r'by_tag\("([^"]+)"\)', fh.read()))
    return tags


class TestRegistryBasics:
    def test_paper_variants_registered_in_legend_order(self):
        assert REGISTRY.names() == (
            "BASE", "UV", "DAC-IDEAL", "DARSIE", "DARSIE-IGNORE-STORE",
            "DARSIE-NO-CF-SYNC", "DARSIE-SYNC-ON-WRITE", "SILICON-SYNC",
            "DUAL-ISSUE", "DARM", "DARM-IDEAL",
        )

    def test_get_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="unknown configuration"):
            REGISTRY.get("DARSIE-TURBO")

    def test_double_registration_rejected(self):
        reg = VariantRegistry()
        reg.register(Variant(name="X", make_frontend=lambda i, d: None))
        with pytest.raises(ValueError, match="already registered"):
            reg.register(Variant(name="X", make_frontend=lambda i, d: None))
        reg.register(Variant(name="X", make_frontend=lambda i, d: None),
                     replace=True)

    def test_contains_iter_len(self):
        assert "DARSIE" in REGISTRY and "NOPE" not in REGISTRY
        assert len(REGISTRY) == len(REGISTRY.names())
        assert [v.name for v in REGISTRY] == list(REGISTRY.names())


class TestLegacyViewsAreTagQueries:
    """The figures' configuration lists are tag queries in legend order."""

    def test_fig8_configs(self):
        assert REGISTRY.by_tag("fig8") == (
            "BASE", "UV", "DAC-IDEAL", "DARSIE", "DARSIE-IGNORE-STORE"
        )

    def test_reduction_configs(self):
        assert REGISTRY.by_tag("reduction") == ("UV", "DAC-IDEAL", "DARSIE")

    def test_fig12_configs(self):
        assert REGISTRY.by_tag("fig12") == (
            "DARSIE", "DARSIE-NO-CF-SYNC", "SILICON-SYNC"
        )

    def test_config_names_everywhere(self):
        assert REGISTRY.names() == (
            "BASE", "UV", "DAC-IDEAL", "DARSIE", "DARSIE-IGNORE-STORE",
            "DARSIE-NO-CF-SYNC", "DARSIE-SYNC-ON-WRITE", "SILICON-SYNC",
            "DUAL-ISSUE", "DARM", "DARM-IDEAL",
        )

    def test_no_orphans(self):
        """Every tag the package queries selects a variant, and every
        variant but two carries a queried tag.  The two are reachable
        by name only, and the golden store pins both; a new variant
        that no query selects fails here."""
        queried = queried_tags()
        assert queried == {"fig8", "reduction", "fig12", "technique"}
        for tag in queried:
            assert REGISTRY.by_tag(tag), f"tag {tag!r} selects no variant"
        by_name_only = {v.name for v in REGISTRY if not set(v.tags) & queried}
        assert by_name_only == {"DARSIE-SYNC-ON-WRITE", "DUAL-ISSUE"}
        store = os.path.join(os.path.dirname(__file__), "..", "timing", "data", "golden.json")
        pinned = {json.loads(key)["variant"] for key in golden.load(store)}
        assert by_name_only <= pinned


class TestDualIssueReachable:
    """DUAL-ISSUE rides the same rails as every other registered
    variant: runner, CLI, sweep views and the bench harness all resolve
    it straight from the registry — no special-case wiring anywhere."""

    def test_runner_resolves_dual_issue(self):
        from repro.harness.runner import WorkloadRunner
        from repro.workloads import build_workload

        runner = WorkloadRunner(build_workload("MM", "tiny"))
        base = runner.run("BASE")
        dual = runner.run("DUAL-ISSUE")
        # same work, different schedule: the second issue slot is real
        assert dual.stats.instructions_executed == base.stats.instructions_executed
        assert dual.cycles != base.cycles

    def test_cli_runs_dual_issue(self, capsys):
        from repro.__main__ import main

        assert main(["run", "MM", "--scale", "tiny", "--config", "DUAL-ISSUE",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "DUAL-ISSUE" in out and "cycles" in out

    def test_bench_harness_accepts_dual_issue(self):
        from repro.harness.bench import run_bench

        report = run_bench(scale="tiny", abbrs=("FW",),
                           configs=("DUAL-ISSUE",), repeats=1)
        assert ["DUAL-ISSUE"] == report.variants()

    def test_live_views_see_dual_issue(self):
        assert "DUAL-ISSUE" in REGISTRY.names()


class TestOneRegistrationExtension:
    """A new variant is one register() call: the runner, the sweeps and
    the CLI all pick it up with no other edits."""

    NAME = "DARSIE-TEST-PORTS16"

    @pytest.fixture
    def ports16(self):
        def make_frontend(runner, darsie):
            analysis = runner.analysis
            return lambda: DarsieFrontend(analysis, darsie)

        variant = REGISTRY.register(Variant(
            name=self.NAME,
            make_frontend=make_frontend,
            tags=("test",),
            darsie_defaults=DarsieConfig(skip_ports=16),
            description="test-only ablation point",
        ))
        yield variant
        REGISTRY.unregister(self.NAME)

    def test_runner_resolves_new_variant(self, ports16):
        from repro.harness.runner import WorkloadRunner
        from repro.workloads import build_workload

        runner = WorkloadRunner(build_workload("MM", "tiny"))
        result = runner.run(self.NAME)
        # the frontend really carried the registered knob preset
        explicit = runner.run("DARSIE", DarsieConfig(skip_ports=16))
        assert result.cycles == explicit.cycles
        assert result.stats == explicit.stats

    def test_cli_runs_new_variant(self, ports16, capsys):
        from repro.__main__ import main

        assert main(["run", "MM", "--scale", "tiny", "--config", self.NAME,
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert self.NAME in out and "cycles" in out

    def test_live_views_see_new_variant(self, ports16):
        assert self.NAME in REGISTRY.names()
        assert REGISTRY.by_tag("test") == (self.NAME,)
