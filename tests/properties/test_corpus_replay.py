"""Corpus replay + generator health for the differential fuzzer.

Every committed ``tests/corpus/*.kernel.json`` program is a previously
shrunk counterexample (or a hand-seeded adversarial case) pinning a bug
the oracle stack once caught; replaying each through every oracle
keeps those bugs fixed forever.  The generator-health tests guard the
fuzzer itself: if the by-construction validity rules rot, the campaign
silently burns its budget on discarded candidates.
"""

import pytest

from repro.fuzz import ORACLES, check_spec, corpus_specs
from repro.fuzz.driver import _corpus_name
from repro.fuzz.oracles import OracleFailure

CORPUS = list(corpus_specs())
CORPUS_IDS = [spec.name for _, spec in CORPUS]


class TestCorpusReplay:
    def test_corpus_is_populated(self):
        """The ISSUE-8 acceptance floor: at least five pinned programs."""
        assert len(CORPUS) >= 5

    def test_corpus_names_match_files(self):
        for path, spec in CORPUS:
            assert path.endswith(f"{spec.name}.kernel.json")

    @pytest.mark.parametrize(("path", "spec"), CORPUS, ids=CORPUS_IDS)
    @pytest.mark.parametrize("oracle", list(ORACLES))
    def test_corpus_program_passes_oracle(self, path, spec, oracle):
        """Each pinned program must pass each differential oracle."""
        ORACLES[oracle](spec)

    @pytest.mark.parametrize(("path", "spec"), CORPUS, ids=CORPUS_IDS)
    def test_corpus_program_assembles_and_lints(self, path, spec):
        from repro.staticlib.lint import lint_program

        report = lint_program(spec.program())
        assert report.ok, [str(f) for f in report.errors]


class TestGeneratorHealth:
    def test_raw_generator_validity_rates(self):
        """Everything the generator emits must assemble, and nearly
        everything must pass the linter — the ``assume`` filter is a
        backstop, not the workhorse."""
        pytest.importorskip("hypothesis")
        from repro.fuzz import generator_health

        stats = generator_health(seed=0, samples=60)
        assert stats["samples"] == 60
        assert stats["assemble_rate"] == 1.0, stats["errors"]
        assert stats["lint_rate"] >= 0.9, stats["errors"]

    def test_filtered_strategy_yields_lint_clean_specs(self):
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, Phase, given, settings
        from hypothesis import seed as hyp_seed

        from repro.fuzz.generate import kernel_specs
        from repro.staticlib.lint import lint_program

        seen = []

        @settings(max_examples=10, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck),
                  phases=(Phase.generate,))
        @hyp_seed(3)
        @given(spec=kernel_specs())
        def _sample(spec):
            seen.append(spec)
            assert lint_program(spec.program()).ok

        _sample()
        assert len(seen) >= 10

    def test_campaign_green_on_small_budget(self):
        pytest.importorskip("hypothesis")
        from repro.fuzz import fuzz_campaign

        report = fuzz_campaign(seed=1, budget=5, save=False)
        assert report.ok
        assert report.examples == 5

    def test_shrinking_is_deterministic_under_fixed_seed(self):
        """Same seed + same (synthetic) failing oracle ⇒ the exact same
        shrunk counterexample, twice — the campaign keeps no state
        between runs (the hypothesis database is disabled)."""
        pytest.importorskip("hypothesis")
        from repro.fuzz import fuzz_campaign

        def barrier_hater(spec):
            if "bar.sync" in spec.source:
                raise OracleFailure("synthetic", spec, "kernel uses bar.sync")

        reports = [
            fuzz_campaign(seed=7, budget=40, save=False,
                          oracles={"synthetic": barrier_hater})
            for _ in range(2)
        ]
        assert all(not r.ok for r in reports), "seed 7 must hit a barrier kernel"
        first, second = (r.failure.spec for r in reports)
        assert first.source == second.source
        assert first.block_dim == second.block_dim
        assert first.grid_dim == second.grid_dim
        assert first.data_seed == second.data_seed
        # The shrunk reproducer is minimal: exactly one offending line.
        assert first.source.count("bar.sync") == 1
        # And its corpus name is content-derived, so re-saving the same
        # bug overwrites the same pin instead of piling up duplicates.
        assert _corpus_name(reports[0].failure) == _corpus_name(reports[1].failure)

    def test_save_failure_round_trips(self, tmp_path):
        pytest.importorskip("hypothesis")
        from repro.fuzz import fuzz_campaign, load_spec, save_failure

        def always_fails(spec):
            raise OracleFailure("synthetic", spec, "unconditional")

        report = fuzz_campaign(seed=0, budget=3, save=False,
                               oracles={"synthetic": always_fails})
        assert not report.ok
        path = save_failure(report.failure, str(tmp_path))
        loaded = load_spec(path)
        assert loaded.source == report.failure.spec.source
        assert loaded.note.startswith("synthetic:")
        # The reloaded spec replays through the real oracle stack.
        check_spec(loaded)
