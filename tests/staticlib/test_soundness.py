"""Marking soundness cross-checker: static DR vs. dynamic uniformity."""

import dataclasses

import pytest

from repro import ALL_ABBRS, Marking, analyze_program, build_workload
from repro.harness.runner import VerificationError
from repro.staticlib import audit_all, audit_workload


class TestRealMarkingsAreSound:
    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_workload_audit_passes(self, abbr):
        audit = audit_workload(build_workload(abbr, "tiny"))
        assert audit.ok, audit.render()
        assert audit.dr_pcs > 0  # every kernel has some promoted-DR work
        assert audit.groups_checked > 0

    def test_audit_all_report(self):
        report = audit_all(scale="tiny", abbrs=("MM", "LIB"))
        assert report.ok
        assert len(report.audits) == 2
        assert "sound" in report.render()

    def test_a_run_that_fails_its_oracle_is_not_audited(self):
        """The audit reads the runner's verified trace, so a wrong run
        raises the runner's error, naming the workload."""
        workload = dataclasses.replace(
            build_workload("LIB", "tiny"), check=lambda memory, params: False
        )
        with pytest.raises(VerificationError, match="LIB"):
            audit_workload(workload)


class TestOverPromotionIsCaught:
    def _over_promoted(self, abbr="MM"):
        """Real markings with one vector value-producer forced to DR."""
        workload = build_workload(abbr, "tiny")
        analysis = analyze_program(workload.program)
        markings = dict(analysis.instruction_markings)
        victim = next(
            inst.pc
            for inst in workload.program.instructions
            if markings[inst.pc] is Marking.VECTOR
            and (inst.dest_register() is not None or inst.dest_predicate() is not None)
            and not inst.is_load
        )
        markings[victim] = Marking.REDUNDANT
        return workload, markings, victim

    def test_forced_dr_on_vector_instruction_violates(self):
        workload, markings, victim = self._over_promoted()
        audit = audit_workload(workload, markings=markings)
        assert not audit.ok
        assert any(v.pc == victim for v in audit.violations)

    def test_violation_reads_like_a_compiler_bug_report(self):
        workload, markings, victim = self._over_promoted()
        audit = audit_workload(workload, markings=markings)
        v = next(v for v in audit.violations if v.pc == victim)
        assert v.workload == "MM"
        assert v.marking == "DR"
        assert "compiler-pass bug" in v.message
        assert "uniform across all warps" in v.message
        rendered = audit.render()
        assert "VIOLATION" in rendered

    def test_report_ok_goes_false(self):
        workload, markings, _ = self._over_promoted()
        audit = audit_workload(workload, markings=markings)
        from repro.staticlib import SoundnessReport

        report = SoundnessReport(audits=[audit])
        assert not report.ok
        assert report.violations
        assert "violation" in report.render()
