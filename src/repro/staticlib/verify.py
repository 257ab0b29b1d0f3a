"""Differential verification of the control-flow melding transform.

The melder's soundness argument (DESIGN.md §4h) is static; this module
checks it *dynamically*: every workload is executed twice through the
functional SIMT executor — once with its original program, once after
:func:`repro.staticlib.passes.darm_ideal_pass` (every legal meld, no
profitability bar, so the check covers strictly more rewrites than the
DARM variant ever applies) — and the two runs must be observationally
identical:

- **Global memory** must match bit for bit: the raw bytes of the word
  array, not ``==`` or a tolerance, so identical NaN results agree.
- **Per-warp register and predicate files** must match the same way,
  with a missing register treated as zeros on both sides — the register
  file allocates zeros on first read, so a melded program may
  *materialize* registers (an inactive lane's guarded read pulls the
  zero page in) that the original never touched.  Materializing zeros
  is not a semantic difference.
- **The workload oracle** must accept both runs.
- **The linter** must find nothing new in the melded program.

``python -m repro meld-verify`` runs this over every workload
(Table 1 + the divergent suite) and exits nonzero on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.program import Program
from repro.simt.executor import ExecutionContext, FunctionalEngine, run_threadblocks
from repro.simt.memory import KernelParams
from repro.workloads import EXTENDED_ABBRS, Workload, build_workload

#: (tb_index, warp_index, kind, name) -> lane-vector; kind is "r" or "p".
RegisterDump = Dict[Tuple[int, int, str, str], np.ndarray]


@dataclass
class FunctionalOutcome:
    """Observable state after one functional run of one program."""

    memory_words: np.ndarray
    registers: RegisterDump
    oracle_ok: bool
    instructions_executed: int


def _run_capturing(workload: Workload, program: Program) -> FunctionalOutcome:
    """Run ``program`` under ``workload``'s launch, keeping final state.

    Runs :func:`repro.simt.executor.run_threadblocks`, the loop behind
    :func:`repro.simt.run_functional`, and keeps each threadblock's
    register files as it finishes: the differential check needs them.
    """
    memory, params = workload.fresh()
    ctx = ExecutionContext(
        program=program,
        launch=workload.launch,
        memory=memory,
        params=KernelParams(params or {}),
    )
    engine = FunctionalEngine(ctx)
    registers: RegisterDump = {}
    for tb in run_threadblocks(engine):
        for warp in tb.warps:
            rf = warp.registers
            for name, value in rf._regs.items():
                registers[(tb.tb_index, warp.warp_id, "r", name)] = value.copy()
            for name, value in rf._preds.items():
                registers[(tb.tb_index, warp.warp_id, "p", name)] = value.copy()
    oracle_ok = workload.verify(memory, params)
    return FunctionalOutcome(
        memory_words=memory.words.copy(),
        registers=registers,
        oracle_ok=oracle_ok,
        instructions_executed=engine.instructions_executed,
    )


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-exact array equality: NaN == NaN iff same payload."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _diff_registers(base: RegisterDump, other: RegisterDump) -> List[str]:
    """Bit-exact register diff; a register missing on one side is zeros
    (the register file materializes zeros on first read)."""
    problems: List[str] = []
    for key in sorted(set(base) | set(other), key=str):
        tb, warp, kind, name = key
        a, b = base.get(key), other.get(key)
        if a is None:
            a = np.zeros_like(b)
        if b is None:
            b = np.zeros_like(a)
        if not _bits_equal(a, b):
            problems.append(
                f"tb{tb}/warp{warp} ${name} ({kind}): "
                f"base={a.tolist()} other={b.tolist()}"
            )
    return problems


def _diff_memory(base: np.ndarray, other: np.ndarray) -> Optional[str]:
    if _bits_equal(base, other):
        return None
    a = base.view(np.uint8).reshape(base.size, -1)
    b = other.view(np.uint8).reshape(other.size, -1)
    words = np.nonzero((a != b).any(axis=1))[0]
    sample = ", ".join(
        f"[{w}] {base[w]!r} != {other[w]!r}" for w in words[:8]
    )
    return f"global memory differs in {words.size} word(s): {sample}"


def _lint_regressions(original: Program, melded: Program) -> List[str]:
    """Per-rule finding counts that grew from original to melded."""
    from repro.staticlib.passes import _lint_fingerprint

    base_rules, base_uninit = _lint_fingerprint(original)
    meld_rules, meld_uninit = _lint_fingerprint(melded)
    problems = [
        f"lint rule {rule!r}: {base_rules.get(rule, 0)} -> {count} findings"
        for rule, count in sorted(meld_rules.items())
        if count > base_rules.get(rule, 0)
    ]
    if meld_uninit > base_uninit:
        problems.append(f"uninitialized reads: {base_uninit} -> {meld_uninit}")
    return problems


@dataclass
class WorkloadMeldCheck:
    """Differential verdict for one workload."""

    abbr: str
    scale: str
    melds_applied: int
    melds_rejected: int
    instructions_before: int
    instructions_after: int
    dynamic_before: int
    dynamic_after: int
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def changed(self) -> bool:
        return self.melds_applied > 0

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        detail = (
            f"{self.melds_applied} meld(s), "
            f"{self.instructions_before}->{self.instructions_after} static, "
            f"{self.dynamic_before}->{self.dynamic_after} dynamic"
            if self.changed
            else "no meldable regions"
        )
        return f"{self.abbr:<8} {verdict:<5} {detail}"

    def to_dict(self) -> Dict:
        return {
            "abbr": self.abbr,
            "scale": self.scale,
            "ok": self.ok,
            "melds_applied": self.melds_applied,
            "melds_rejected": self.melds_rejected,
            "instructions_before": self.instructions_before,
            "instructions_after": self.instructions_after,
            "dynamic_before": self.dynamic_before,
            "dynamic_after": self.dynamic_after,
            "problems": list(self.problems),
        }


def verify_workload(
    workload: Workload,
    transform: Optional[Callable[[Program], Program]] = None,
) -> WorkloadMeldCheck:
    """Differentially verify melding on one workload.

    By default the transform is the *ideal* melder (threshold ``None``),
    so the check exercises every legal meld, not just the profitable
    subset DARM would keep.
    """
    from repro.staticlib.passes import meld_program

    original = workload.program
    if transform is None:
        result = meld_program(original, threshold=None)
        melded = result.program
        applied, rejected = len(result.applied), len(result.rejected)
    else:
        melded = transform(original)
        applied = int(melded is not original)
        rejected = 0

    base = _run_capturing(workload, original)
    after = _run_capturing(workload, melded)

    problems: List[str] = []
    if not base.oracle_ok:
        problems.append("original program fails its oracle")
    if not after.oracle_ok:
        problems.append("melded program fails its oracle")
    mem_problem = _diff_memory(base.memory_words, after.memory_words)
    if mem_problem:
        problems.append(mem_problem)
    problems.extend(_diff_registers(base.registers, after.registers))
    problems.extend(_lint_regressions(original, melded))

    return WorkloadMeldCheck(
        abbr=workload.abbr,
        scale=workload.scale,
        melds_applied=applied,
        melds_rejected=rejected,
        instructions_before=len(original.instructions),
        instructions_after=len(melded.instructions),
        dynamic_before=base.instructions_executed,
        dynamic_after=after.instructions_executed,
        problems=problems,
    )


@dataclass
class MeldVerifyReport:
    """Batch verdict over a set of workloads."""

    checks: List[WorkloadMeldCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def melded(self) -> List[WorkloadMeldCheck]:
        return [c for c in self.checks if c.changed]

    def render(self) -> str:
        lines = [c.summary() for c in self.checks]
        for check in self.checks:
            for problem in check.problems:
                lines.append(f"  {check.abbr}: {problem}")
        lines.append(
            f"{len(self.checks)} workload(s): "
            f"{len(self.melded)} melded, "
            f"{sum(len(c.problems) for c in self.checks)} problem(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "workloads": [c.to_dict() for c in self.checks],
        }


def verify_all(
    scale: str = "tiny",
    abbrs: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[WorkloadMeldCheck], None]] = None,
) -> MeldVerifyReport:
    """Differentially verify melding over ``abbrs`` (default: everything)."""
    checks: List[WorkloadMeldCheck] = []
    for abbr in abbrs if abbrs is not None else EXTENDED_ABBRS:
        check = verify_workload(build_workload(abbr, scale))
        checks.append(check)
        if progress is not None:
            progress(check)
    return MeldVerifyReport(checks)
