"""Unit tests for the workload runner and reporting helpers."""

import pytest

from repro.core import analyze_program
from repro.harness import runner as runner_module
from repro.harness.related_work import TABLE3, darsie_covers_all, render_table3
from repro.harness.reporting import fmt_pct, fmt_x, format_table
from repro.harness.runner import WorkloadRunner
from repro.variants import REGISTRY
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def runner():
    return WorkloadRunner(build_workload("CONVTEX", "tiny"))


class TestRunner:
    def test_all_config_names_run(self, runner):
        for name in REGISTRY.names():
            assert runner.run(name).cycles > 0

    def test_unknown_config(self, runner):
        with pytest.raises(KeyError, match="unknown configuration"):
            runner.run("WARP-DRIVE")

    def test_caching_returns_same_object(self, runner):
        assert runner.run("BASE") is runner.run("BASE")

    def test_speedup_and_reductions_consistent(self, runner):
        sp = runner.speedup("DARSIE")
        assert sp == runner.run("BASE").cycles / runner.run("DARSIE").cycles
        red = runner.instruction_reduction("DARSIE")
        assert 0 <= red < 1
        assert runner.instruction_reduction("BASE") == 0.0

    def test_energy_reduction_sign(self, runner):
        assert runner.energy_reduction("BASE") == pytest.approx(0.0)

    def test_functional_trace_cached(self, runner):
        assert runner.functional_trace() is runner.functional_trace()


class TestLazyAnalysis:
    """The compiler pass runs only for a variant that reads its analysis,
    once, through the module attribute a profiler may wrap."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(program, *args, **kwargs):
            calls.append(program)
            return analyze_program(program, *args, **kwargs)

        monkeypatch.setattr(runner_module, "analyze_program", counting)
        return calls

    def test_variants_without_analysis_never_run_the_pass(self, calls):
        lazy = WorkloadRunner(build_workload("CONVTEX", "tiny"))
        names = [v.name for v in REGISTRY if "analysis" not in v.requires]
        assert {"BASE", "DAC-IDEAL"} <= set(names)
        for name in names:
            lazy.frontend_factory(name)
        lazy.functional_trace()  # the limit studies' functional spec
        assert calls == []

    def test_a_variant_that_reads_it_runs_the_pass_once(self, calls):
        lazy = WorkloadRunner(build_workload("CONVTEX", "tiny"))
        assert REGISTRY.get("DARSIE").requires == ("analysis",)
        lazy.frontend_factory("DARSIE")
        lazy.frontend_factory("UV")
        assert calls == [lazy.workload.program]
        assert lazy.analysis is lazy.analysis


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_formatters(self):
        assert fmt_pct(0.5) == " 50.0%"
        assert fmt_x(1.25) == "1.25x"


class TestRelatedWork:
    def test_capability_matrix(self):
        assert darsie_covers_all()
        assert len(TABLE3) == 6
        assert "DARSIE" in render_table3()
