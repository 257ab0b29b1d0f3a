"""Marking soundness cross-checker: static DR vs. dynamic uniformity.

The compiler pass promises (Section 4.2) that a *definitely redundant*
instruction produces the same value vector in every warp of a TB — for
DR proper that vector is lane-uniform (all its seeds are), and for CR
instructions promoted at launch it repeats across warps.  Nothing in the
marking pass itself verifies this; an over-promotion would make follower
warps consume a leader value that is simply wrong.

This module reads each workload's oracle-verified functional trace
(:meth:`repro.harness.runner.WorkloadRunner.functional_trace`) and
checks, for every dynamic instance of every promoted-DR instruction,
that all warps of the TB executed it, none under SIMD divergence, and
all produced the same :class:`ValueSummary` — reporting any violation
as a compiler-pass bug with enough context to reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.compiler_pass import analyze_program
from repro.core.promotion import promote_markings
from repro.core.taxonomy import Marking
from repro.isa.program import Program
from repro.simt.tracer import ExecutionTrace, RedundancyClass


@dataclass(frozen=True)
class SoundnessViolation:
    """One statically-DR instruction instance that was not TB-redundant."""

    workload: str
    pc: int
    tb_index: int
    occurrence: int
    marking: str
    observed: str
    message: str

    def render(self) -> str:
        return (
            f"{self.workload} pc={self.pc:#06x} tb={self.tb_index} "
            f"occ={self.occurrence} [{self.marking}]: {self.message}"
        )


@dataclass
class WorkloadAudit:
    """Soundness result for one workload run."""

    abbr: str
    scale: str
    dr_pcs: int
    groups_checked: int
    violations: List[SoundnessViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        head = (
            f"{self.abbr:>8} [{self.scale}]: {self.dr_pcs} DR pc(s), "
            f"{self.groups_checked} TB instance(s) checked — {status}"
        )
        if self.ok:
            return head
        return "\n".join([head] + [f"  {v.render()}" for v in self.violations])


@dataclass
class SoundnessReport:
    """Cross-checker results over a set of workloads."""

    audits: List[WorkloadAudit] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.audits)

    @property
    def violations(self) -> List[SoundnessViolation]:
        return [v for a in self.audits for v in a.violations]

    def render(self) -> str:
        lines = [a.render() for a in self.audits]
        total_groups = sum(a.groups_checked for a in self.audits)
        verdict = "sound" if self.ok else f"{len(self.violations)} violation(s)"
        lines.append(
            f"soundness: {len(self.audits)} workload(s), {total_groups} "
            f"TB instance(s) — {verdict}"
        )
        return "\n".join(lines)


def audit_trace(
    program: Program,
    static_markings: Dict[int, Marking],
    promoted_markings: Dict[int, Marking],
    trace: ExecutionTrace,
    workload: str = "?",
) -> Tuple[List[SoundnessViolation], int, int]:
    """Check one execution trace against one set of markings.

    Returns ``(violations, dr_pcs, groups_checked)``.  Separated from
    :func:`audit_workload` so tests can inject deliberately
    over-promoted markings and watch the checker catch them.
    """
    expected = trace.warps_per_block
    violations: List[SoundnessViolation] = []
    checked_pcs = set()
    groups_checked = 0
    # Sites executed under control-flow divergence are unverifiable from
    # a functional trace: warps on different paths reach a PC different
    # numbers of times, so occurrence-aligned groups pair unrelated
    # dynamic instances, and a record with a partial execution mask means
    # the warp had left (or never joined) the majority path — DARSIE's
    # hardware never shares values in either situation, so neither is a
    # marking bug.  Skip every group at such a site: a site is
    # verifiable exactly when every instance there is complete (then
    # every warp reached the PC equally often) and none diverged.
    instances = trace.instances
    unverifiable = {
        (tb_index, pc)
        for (tb_index, pc, _occ), instance in instances.items()
        if instance.divergent or instance.warps != expected
    }

    for (tb_index, pc, occurrence), instance in instances.items():
        if promoted_markings.get(pc) is not Marking.REDUNDANT:
            continue
        if (tb_index, pc) in unverifiable:
            continue
        inst = program.at(pc)
        if inst.dest_register() is None and inst.dest_predicate() is None:
            continue  # no value to share through renaming
        checked_pcs.add(pc)
        groups_checked += 1
        cls = instance.redundancy
        static = static_markings.get(pc, Marking.VECTOR)
        if static is Marking.REDUNDANT:
            sound = cls is RedundancyClass.UNIFORM
            expectation = "uniform across all warps"
            marking = "DR"
        else:
            sound = cls is not RedundancyClass.NON_REDUNDANT
            expectation = "TB-redundant across all warps"
            marking = f"{static.short}->DR"
        if sound:
            continue
        observed = f"dynamically {cls.value}"  # a checked site is complete and undiverged
        violations.append(
            SoundnessViolation(
                workload=workload,
                pc=pc,
                tb_index=tb_index,
                occurrence=occurrence,
                marking=marking,
                observed=observed,
                message=f"statically marked {marking} (must be {expectation}) "
                f"but was {observed} — compiler-pass bug: `{inst}`",
            )
        )
    return violations, len(checked_pcs), groups_checked


def audit_workload(
    workload,
    markings: Optional[Dict[int, Marking]] = None,
    enable_3d: bool = False,
) -> WorkloadAudit:
    """Replay one workload functionally and cross-check its markings.

    ``markings`` overrides the static markings (tests use this to verify
    the checker fails on a deliberate over-promotion); by default the
    real compiler pass runs.  A run that fails the workload's oracle
    raises :class:`~repro.harness.runner.VerificationError`: its trace
    cannot be trusted.
    """
    # Local import: the harness sits above staticlib.
    from repro.harness.runner import WorkloadRunner

    program = workload.program
    if markings is None:
        markings = analyze_program(program, enable_3d=enable_3d).instruction_markings
    promoted = promote_markings(markings, workload.launch)
    trace = WorkloadRunner(workload).functional_trace()
    violations, dr_pcs, groups = audit_trace(
        program, markings, promoted, trace, workload=workload.abbr
    )
    return WorkloadAudit(
        abbr=workload.abbr,
        scale=workload.scale,
        dr_pcs=dr_pcs,
        groups_checked=groups,
        violations=violations,
    )


def audit_all(
    scale: str = "tiny", abbrs: Optional[Iterable[str]] = None
) -> SoundnessReport:
    """Cross-check every registered workload at the given scale."""
    from repro.workloads import ALL_ABBRS, build_workload

    report = SoundnessReport()
    for abbr in abbrs if abbrs is not None else ALL_ABBRS:
        report.audits.append(audit_workload(build_workload(abbr, scale)))
    return report
