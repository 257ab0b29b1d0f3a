"""Transform pass pipeline: every rewrite is re-verified before commit.

The analysis half of :mod:`repro.staticlib` exists because the paper's
whole-program guarantee cannot survive silent miscompilation; the same
bar applies to our own transforms.  :class:`PassManager` therefore
treats every candidate rewrite as untrusted: after each single-step
transform it re-runs the full 6-rule linter and the reaching-definitions
uninitialized-read analysis on the result, and refuses (reverts) any
step that makes either worse than the program it started from.  A
refused step is reported, the offending region is blocklisted by its
position-independent signature, and the pipeline continues with the
remaining candidates.

The comparison is *monotone*, not absolute: a kernel that already lints
dirty may still be transformed, as long as no rule's finding count grows
and no new uninitialized read appears.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.program import Program
from repro.staticlib.cfg import ControlFlowGraph
from repro.staticlib.meld import (
    DEFAULT_THRESHOLD,
    MeldRecord,
    apply_meld,
    diamond_signature,
    meldable_plans,
)
from repro.staticlib.reaching import ReachingDefinitions

#: Hard cap on transform steps per pipeline run — a structural rewrite
#: that keeps producing new candidates is a bug, not progress.
MAX_STEPS = 64


def _lint_fingerprint(program: Program) -> Tuple[Counter, int]:
    """Per-rule finding counts plus the uninitialized-read count.

    PCs shift under transforms, so the monotonicity check compares
    rule-level counts, not positions.  Imported lazily because
    :mod:`repro.staticlib.lint` pulls in the compiler pass.
    """
    from repro.staticlib.lint import lint_program

    report = lint_program(program)
    by_rule = Counter(f.rule for f in report.findings)
    cfg = ControlFlowGraph.from_program(program)
    uninit = len(ReachingDefinitions(program, cfg).uninitialized_reads())
    return by_rule, uninit


@dataclass(frozen=True)
class Rejection:
    """One refused transform step."""

    pass_name: str
    branch_pc: int
    reason: str


@dataclass
class PipelineResult:
    """Outcome of one :meth:`PassManager.run`."""

    program: Program
    applied: List[MeldRecord] = field(default_factory=list)
    rejected: List[Rejection] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.applied)

    def summary(self) -> str:
        return (
            f"{self.program.name}: {len(self.applied)} meld(s) applied, "
            f"{len(self.rejected)} rejected"
        )


class MeldPass:
    """One-diamond-at-a-time control-flow melding (see :mod:`.meld`).

    ``threshold`` of ``None`` melds every legal diamond (the
    ``DARM-IDEAL`` policy); otherwise only alignments at or above the
    similarity bar are taken (``DARM``).
    """

    name = "meld"

    def __init__(self, threshold: Optional[float] = DEFAULT_THRESHOLD):
        self.threshold = threshold
        self._blocked: set = set()

    def block(self, program: Program, record: MeldRecord) -> None:
        """Never retry the diamond this record came from."""
        for plan in meldable_plans(program, threshold=None):
            if plan.diamond.branch_pc == record.branch_pc:
                self._blocked.add(diamond_signature(program, plan.diamond))
                return

    def step(self, program: Program) -> Optional[Tuple[Program, MeldRecord]]:
        """Apply the first unblocked profitable meld, or ``None``."""
        for plan in meldable_plans(program, threshold=self.threshold):
            if diamond_signature(program, plan.diamond) in self._blocked:
                continue
            return apply_meld(program, plan.diamond), MeldRecord.from_plan(plan)
        return None


class PassManager:
    """Runs transform passes to quiescence with per-step verification."""

    def __init__(self, passes: Optional[List] = None):
        self.passes = passes if passes is not None else [MeldPass()]

    def run(self, program: Program) -> PipelineResult:
        result = PipelineResult(program=program)
        baseline = _lint_fingerprint(program)
        steps = 0
        progress = True
        while progress and steps < MAX_STEPS:
            progress = False
            for p in self.passes:
                out = p.step(result.program)
                if out is None:
                    continue
                candidate, record = out
                steps += 1
                reason = self._regression(baseline, candidate)
                if reason is not None:
                    p.block(result.program, record)
                    result.rejected.append(
                        Rejection(pass_name=p.name, branch_pc=record.branch_pc, reason=reason)
                    )
                    progress = True
                    break
                result.program = candidate
                result.applied.append(record)
                progress = True
                break  # re-discover regions on the rewritten program
        return result

    @staticmethod
    def _regression(baseline, candidate: Program) -> Optional[str]:
        """Why the candidate is less sound than the input, or ``None``."""
        base_rules, base_uninit = baseline
        cand_rules, cand_uninit = _lint_fingerprint(candidate)
        for rule, count in cand_rules.items():
            if count > base_rules.get(rule, 0):
                return (
                    f"lint rule {rule!r} grew from {base_rules.get(rule, 0)} "
                    f"to {count} finding(s)"
                )
        if cand_uninit > base_uninit:
            return (
                f"uninitialized reads grew from {base_uninit} to {cand_uninit}"
            )
        return None


def meld_program(
    program: Program, threshold: Optional[float] = DEFAULT_THRESHOLD
) -> PipelineResult:
    """Meld every (profitable, verified-sound) diamond in ``program``."""
    return PassManager([MeldPass(threshold=threshold)]).run(program)


def darm_pass(program: Program) -> Program:
    """The ``DARM`` variant hook: profitability-gated melding."""
    return meld_program(program, threshold=DEFAULT_THRESHOLD).program


def darm_ideal_pass(program: Program) -> Program:
    """The ``DARM-IDEAL`` variant hook: meld every legal diamond."""
    return meld_program(program, threshold=None).program
