"""Experiment drivers produce well-formed, shape-correct results.

These run at ``tiny`` scale over a subset of workloads — fast sanity
checks; the full reproduction lives in ``benchmarks/``.
"""

from types import SimpleNamespace

import pytest

from repro.harness import experiments, parallel
from repro.harness.runner import WorkloadRunner
from repro.variants import REGISTRY
from repro.workloads import build_workload

SUBSET = ("LIB", "CONVTEX", "FWS")


class TestFunctionalStudies:
    def test_figure1_fractions_valid(self):
        r = experiments.figure1(scale="tiny", abbrs=SUBSET)
        for b in r.per_workload.values():
            for v in b.as_dict().values():
                assert 0.0 <= v <= 1.0
        assert "Figure 1" in r.render()

    def test_figure2_sums_to_one(self):
        r = experiments.figure2(scale="tiny", abbrs=SUBSET)
        for b in r.per_workload.values():
            total = b.uniform + b.affine + b.unstructured + b.non_redundant
            assert total == pytest.approx(1.0)

    def test_figure6_listing(self):
        r = experiments.figure6(scale="tiny")
        assert "CR" in r.listing and r.counts["V"] > 0


class TestTimingStudies:
    def test_figure8_subset(self):
        r = experiments.figure8(scale="tiny", abbrs=SUBSET)
        for vals in r.per_workload.values():
            assert vals["BASE"] == pytest.approx(1.0)
            assert all(v > 0 for v in vals.values())
        assert "GMEAN" in r.render()

    def test_figure11_subset(self):
        r = experiments.figure11(scale="tiny", abbrs=SUBSET)
        for vals in r.per_workload.values():
            for v in vals.values():
                assert v < 1.0  # a reduction, not a ratio

    def test_figure12_subset(self):
        r = experiments.figure12(scale="tiny", abbrs=SUBSET)
        for vals in r.per_workload.values():
            assert set(vals) == set(REGISTRY.by_tag("fig12"))

    def test_empty_dimension_group_yields_empty_gmean(self):
        """Regression: geomean raises on an empty sequence; a sweep over
        only-1D apps must return an empty 2D GMEAN row, not crash."""
        r = experiments.figure8(scale="tiny", abbrs=("LIB",))
        assert r.gmean_2d == {}
        assert r.gmean_1d and all(v > 0 for v in r.gmean_1d.values())
        assert "GMEAN-1D" in r.render() and "GMEAN-2D" not in r.render()

    def test_gmean_values_always_positive(self):
        """Regression: the gm() call sites skip (and warn on) degenerate
        non-positive members, so the geomean precondition can never be
        violated by a degenerate run."""
        r = experiments.figure8(scale="tiny", abbrs=SUBSET)
        for row in (r.gmean_1d, r.gmean_2d):
            for v in row.values():
                assert v > 0

    def test_reduction_gmean_skips_an_app_that_removed_nothing(self, monkeypatch):
        """Figures 9/10: an app with a 0 % reduction is dropped from the
        GMEAN with a warning; clamped to 1e-9 it would drag the GMEAN
        toward 0 (CP at tiny removes nothing under any variant)."""
        configs = REGISTRY.by_tag("reduction")
        removed = {"LIB": 10, "CP": 0, "MM": 40}  # of 100 baseline instructions

        def sweep(abbrs, run_configs, scale, gpu_config):
            results = {}
            for abbr in abbrs:
                results[abbr, "BASE"] = SimpleNamespace(
                    stats=SimpleNamespace(instructions_executed=100))
                for config in configs:
                    skipped = {"uniform": removed[abbr]} if removed[abbr] else {}
                    results[abbr, config] = SimpleNamespace(stats=SimpleNamespace(
                        skipped_by_class=skipped, eliminated_by_class={}))
            return results, None

        monkeypatch.setattr(experiments.parallel, "sweep", sweep)
        with pytest.warns(RuntimeWarning, match="skipping non-positive value 0"):
            r = experiments._reduction_sweep("tiny", tuple(removed), "title")
        assert r.total("CP", configs[0]) == 0
        assert r.gmean_total == {c: pytest.approx(0.2) for c in configs}  # sqrt(0.1 * 0.4)


class TestStaticArtifacts:
    def test_tables_render(self):
        assert "binomialOptions" in experiments.table1()
        assert "GTO" in experiments.table2()
        assert "DARSIE" in experiments.table3()
        assert "5.31" in experiments.area_estimate()

    def test_survey(self):
        s = experiments.survey()
        assert s.num_applications == 133


class TestAblations:
    def test_skip_ports_ablation(self):
        r = experiments.ablation_skip_ports(abbr="CONVTEX", scale="tiny", ports=(1, 2))
        assert len(r.points) == 2
        assert "Ablation" in r.render()

    def test_a_scale_point_is_measured_against_base_at_that_scale(self):
        r = experiments.ablation_sweep("scale", ("tiny",), abbr="LIB", scale="small")
        runner = WorkloadRunner(build_workload("LIB", "tiny"))
        assert r.points == [("tiny", runner.run("BASE").cycles / runner.run("DARSIE").cycles)]

    def test_a_point_at_the_preset_is_figure8s_darsie_run(self, tmp_path):
        """ports=2 is DARSIE's own preset: Figure 8 already simulated it."""
        with parallel.configured(cache_dir=str(tmp_path), use_cache=True):
            experiments.figure8(scale="tiny", abbrs=("CONVTEX",))
            r = experiments.ablation_skip_ports(abbr="CONVTEX", scale="tiny", ports=(1, 2))
        simulated = [label for label, _, how in r.sweep_stats.per_run if how == "sim"]
        assert simulated == ["CONVTEX/DARSIE@tiny darsie.skip_ports=1"]
        assert r.sweep_stats.cache_hits == 2
