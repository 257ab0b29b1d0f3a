"""Per-PC redundancy opportunity profiler.

A kernel-author-facing tool: given a functional trace and the static
analysis, report — per static instruction — how many dynamic executions
were TB-redundant, how DARSIE classifies the instruction, and *why* a
redundant instruction is not being skipped (vector marking, failed
promotion, non-register-producing, atomic, a single-warp threadblock).
DARSIE's own rule (:func:`repro.core.compiler_pass.skip_blocker`)
decides it, so the report calls skippable exactly what the frontend
skips.  This is the diagnostic the paper's workflow implies: find where
the limit study's opportunity (Figure 1) is lost on the way to Figure
10's realized reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.compiler_pass import CompilerAnalysis, skip_blocker
from repro.core.promotion import promote_markings
from repro.core.taxonomy import Marking
from repro.simt.grid import LaunchConfig
from repro.simt.tracer import ExecutionTrace, RedundancyClass


@dataclass
class PCOpportunity:
    """Redundancy opportunity at one static instruction."""

    pc: int
    text: str
    marking: Marking
    promoted: Marking
    executions: int
    redundant_executions: int
    skippable: bool
    blocker: Optional[str]


@dataclass
class OpportunityReport:
    """Whole-kernel opportunity profile, sorted by lost redundancy."""

    rows: List[PCOpportunity]
    total_executions: int

    def lost(self) -> List[PCOpportunity]:
        """Redundant-but-not-skippable instructions, biggest first."""
        return [r for r in self.rows if r.redundant_executions and not r.skippable]

    def captured_fraction(self) -> float:
        """Share of redundant executions DARSIE can actually skip."""
        redundant = sum(r.redundant_executions for r in self.rows)
        captured = sum(r.redundant_executions for r in self.rows if r.skippable)
        return captured / redundant if redundant else 0.0

    def render(self, limit: int = 20) -> str:
        # Local import: repro.harness imports repro.analysis, so a
        # module-level import here would create a package cycle.
        from repro.harness.reporting import format_table

        headers = ["PC", "insn", "mark", "promoted", "exec", "TB-red", "skippable", "blocker"]
        rows = []
        ordered = sorted(self.rows, key=lambda r: -r.redundant_executions)
        for r in ordered[:limit]:
            rows.append([
                f"{r.pc:#06x}",
                r.text.strip()[:40],
                r.marking.short,
                r.promoted.short,
                r.executions,
                r.redundant_executions,
                "yes" if r.skippable else "",
                r.blocker or "",
            ])
        title = (
            "Redundancy opportunity by PC "
            f"({self.captured_fraction():.0%} of TB-redundant executions skippable)"
        )
        return format_table(headers, rows, title=title)


def opportunity_report(
    analysis: CompilerAnalysis,
    trace: ExecutionTrace,
    launch: LaunchConfig,
) -> OpportunityReport:
    """Cross-reference dynamic redundancy with static skippability."""
    program = analysis.program
    promoted = promote_markings(analysis.instruction_markings, launch)

    executions: Dict[int, int] = {}
    redundant: Dict[int, int] = {}
    for (_tb, pc, _occ), instance in trace.instances.items():
        n = instance.warps
        executions[pc] = executions.get(pc, 0) + n
        if instance.redundancy is not RedundancyClass.NON_REDUNDANT:
            redundant[pc] = redundant.get(pc, 0) + n

    rows = []
    for inst in program.instructions:
        promo = promoted.get(inst.pc, Marking.VECTOR)
        blocker = skip_blocker(inst, promo, launch)
        rows.append(
            PCOpportunity(
                pc=inst.pc,
                text=str(inst),
                marking=analysis.instruction_markings.get(inst.pc, Marking.VECTOR),
                promoted=promo,
                executions=executions.get(inst.pc, 0),
                redundant_executions=redundant.get(inst.pc, 0),
                skippable=blocker is None,
                blocker=blocker,
            )
        )
    return OpportunityReport(rows=rows, total_executions=len(trace))
