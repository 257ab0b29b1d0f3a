"""Kernel linter: the SIMT correctness traps, machine-checked.

Every rule protects a specific part of the paper's argument:

=====================  ========  =================================================
rule id                severity  protects
=====================  ========  =================================================
uninitialized-read     error     Section 4.2 — the marking pass defaults unseen
                                 registers to DR; a genuine read-before-write
                                 makes that default load-bearing.
invalid-branch-target  error     CFG construction / reconvergence — a branch to a
                                 non-instruction PC breaks the SIMT stack.
fallthrough-end        error     control running off the end of the instruction
                                 stream (no ``exit`` on some path).
unreachable-code       warning   dead instructions distort static marking counts
                                 (Figure 7) and hide real bugs.
divergent-barrier      error     Section 4.3 — ``bar.sync`` under thread-divergent
                                 control flow deadlocks real hardware (the DARM
                                 class of bugs).
store-invalidation     warning   Section 4.4 — a vector store while a DR-skipped
                                 load of the same space is live relies on the
                                 hardware load-invalidation path.
=====================  ========  =================================================

Findings carry the PC, severity, rule id and a Figure-6-style annotated
listing excerpt so a report reads like the paper's own marking figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.compiler_pass import CompilerAnalysis, analyze_program
from repro.core.promotion import promote_markings
from repro.core.taxonomy import Marking
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.program import Program
from repro.staticlib.cfg import ControlFlowGraph
from repro.staticlib.liveness import Liveness
from repro.staticlib.reaching import ReachingDefinitions

#: rule id -> (severity, one-line description)
RULES: Dict[str, Tuple[str, str]] = {
    "uninitialized-read": (
        "error",
        "register or predicate read before any write on some path (Section 4.2 precondition)",
    ),
    "invalid-branch-target": ("error", "branch target is not a valid instruction PC"),
    "fallthrough-end": ("error", "control can fall off the end of the program"),
    "unreachable-code": ("warning", "instructions can never execute"),
    "divergent-barrier": (
        "error",
        "bar.sync reachable under thread-divergent control flow (Section 4.3)",
    ),
    "store-invalidation": (
        "warning",
        "vector store while a DR-skipped load of the same space is live (Section 4.4)",
    ),
}

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a PC where possible."""

    rule: str
    severity: str
    pc: Optional[int]
    message: str
    excerpt: str = ""

    def render(self) -> str:
        where = f" pc={self.pc:#06x}" if self.pc is not None else ""
        head = f"{self.severity}[{self.rule}]{where}: {self.message}"
        if not self.excerpt:
            return head
        body = "\n".join(f"    {line}" for line in self.excerpt.splitlines())
        return f"{head}\n{body}"


@dataclass
class LintReport:
    """All findings for one program."""

    program_name: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_rule(self, rule: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def render(self) -> str:
        if not self.findings:
            return f"{self.program_name}: clean"
        lines = [
            f"{self.program_name}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend(f.render() for f in self.findings)
        return "\n".join(lines)


def _excerpt(
    program: Program,
    markings: Dict[int, Marking],
    pc: int,
    context: int = 2,
) -> str:
    """Figure-6-style annotated listing slice around ``pc``."""
    idx = pc // INSTRUCTION_BYTES
    lo = max(0, idx - context)
    hi = min(len(program.instructions), idx + context + 1)
    pc_to_label = {label_pc: lbl for lbl, label_pc in program.labels.items()}
    lines: List[str] = []
    for inst in program.instructions[lo:hi]:
        if inst.pc in pc_to_label:
            lines.append(f"   {pc_to_label[inst.pc]}:")
        pointer = ">>" if inst.pc == pc else "  "
        mark = markings.get(inst.pc)
        col = mark.short if mark is not None else "?"
        lines.append(f"{pointer} {col:>4} {inst.pc:#06x}  {inst}")
    return "\n".join(lines)


def lint_program(
    program: Program,
    analysis: Optional[CompilerAnalysis] = None,
    launch=None,
) -> LintReport:
    """Run every lint rule over one assembled program.

    ``analysis`` defaults to running the marking pass; ``launch`` (when
    given) resolves conditional markings for the store-invalidation
    rule, so the DR-skipped load set matches what the hardware would
    actually skip for that launch.
    """
    if analysis is None:
        analysis = analyze_program(program)
    cfg = ControlFlowGraph.from_program(program)
    markings = analysis.instruction_markings
    report = LintReport(program_name=program.name)
    findings: List[Finding] = []

    findings.extend(_check_branch_targets(program, markings))
    findings.extend(_check_unreachable(program, cfg, markings))
    findings.extend(_check_fallthrough(program, cfg, markings))
    findings.extend(_check_uninitialized(program, cfg, markings))
    findings.extend(_check_divergent_barriers(program, cfg, analysis))
    findings.extend(_check_store_invalidation(program, cfg, analysis, launch))

    report.findings = sorted(
        findings, key=lambda f: (f.pc if f.pc is not None else -1, f.rule)
    )
    return report


def lint_workload(workload) -> LintReport:
    """Lint one Table 1 workload with its real launch configuration."""
    return lint_program(workload.program, launch=workload.launch)


# -- individual rules ------------------------------------------------------


def _check_branch_targets(program: Program, markings) -> List[Finding]:
    valid_pcs = {inst.pc for inst in program.instructions}
    out = []
    for inst in program.instructions:
        if not inst.is_branch:
            continue
        tgt = inst.target_pc
        if tgt is not None and tgt in valid_pcs:
            continue
        shown = "unresolved" if tgt is None else f"{tgt:#06x}"
        out.append(
            Finding(
                rule="invalid-branch-target",
                severity=ERROR,
                pc=inst.pc,
                message=f"branch target {shown} is not an instruction PC "
                f"(valid range [0, {program.end_pc:#06x}))",
                excerpt=_excerpt(program, markings, inst.pc),
            )
        )
    return out


def _check_unreachable(program: Program, cfg: ControlFlowGraph, markings) -> List[Finding]:
    out = []
    for block in program.blocks:
        if block.index in cfg.reachable:
            continue
        out.append(
            Finding(
                rule="unreachable-code",
                severity=WARNING,
                pc=block.start_pc,
                message=f"block of {len(block)} instruction(s) starting at "
                f"{block.start_pc:#06x} is unreachable from entry",
                excerpt=_excerpt(program, markings, block.start_pc, context=1),
            )
        )
    return out


def _check_fallthrough(program: Program, cfg: ControlFlowGraph, markings) -> List[Finding]:
    out = []
    for bidx in sorted(cfg.fallthrough_exit):
        if bidx not in cfg.reachable:
            continue
        term = program.blocks[bidx].terminator
        out.append(
            Finding(
                rule="fallthrough-end",
                severity=ERROR,
                pc=term.pc,
                message="control can fall off the end of the program "
                f"(no exit after {term.pc:#06x} on some path)",
                excerpt=_excerpt(program, markings, term.pc),
            )
        )
    return out


def _check_uninitialized(program: Program, cfg: ControlFlowGraph, markings) -> List[Finding]:
    reaching = ReachingDefinitions(program, cfg)
    out = []
    for read in reaching.uninitialized_reads():
        kind = "predicate" if read.var[0] == "p" else "register"
        out.append(
            Finding(
                rule="uninitialized-read",
                severity=ERROR,
                pc=read.pc,
                message=f"{kind} {read.display_name} may be read before any write "
                "(the marking pass would treat it as uniformly zero)",
                excerpt=_excerpt(program, markings, read.pc),
            )
        )
    return out


def _check_divergent_barriers(
    program: Program, cfg: ControlFlowGraph, analysis: CompilerAnalysis
) -> List[Finding]:
    """``bar.sync`` reachable while a warp's lanes may be split.

    A conditional branch diverges a warp when its guard can vary across
    lanes — any marking below DR (CR values are TB-*redundant* but still
    lane-varying, e.g. ``tid.x`` chains).  The divergent region is the
    set of blocks between the branch and its reconvergence point.
    """
    markings = analysis.instruction_markings
    out = []
    flagged = set()
    for inst in program.instructions:
        if not inst.is_branch or inst.guard is None:
            continue
        if not cfg.is_reachable_pc(inst.pc):
            continue
        if markings.get(inst.pc, Marking.VECTOR) is Marking.REDUNDANT:
            continue  # TB-uniform guard: all lanes agree, no divergence
        try:
            rpc = program.reconvergence_pc(inst.pc)
        except KeyError:
            rpc = None
        region = cfg.region_between(inst.pc, rpc)
        for bidx in sorted(region):
            for binst in program.blocks[bidx]:
                if not binst.is_barrier or binst.pc in flagged:
                    continue
                flagged.add(binst.pc)
                out.append(
                    Finding(
                        rule="divergent-barrier",
                        severity=ERROR,
                        pc=binst.pc,
                        message=f"bar.sync at {binst.pc:#06x} is reachable inside the "
                        f"divergent region of the {markings[inst.pc].short}-guarded "
                        f"branch at {inst.pc:#06x}",
                        excerpt=_excerpt(program, markings, binst.pc),
                    )
                )
    return out


def _check_store_invalidation(
    program: Program,
    cfg: ControlFlowGraph,
    analysis: CompilerAnalysis,
    launch,
) -> List[Finding]:
    """Vector store while a DR-skipped load of the same space is live.

    Follower warps read skipped-load results out of the rename file; a
    store from vector (per-warp) addresses may rewrite the loaded
    location first.  The hardware handles this by invalidating load
    entries (Section 4.4) — the lint surfaces where that machinery is
    actually load-bearing, using same-address-space as the (conservative)
    alias test.
    """
    markings = analysis.instruction_markings
    if launch is not None:
        markings = promote_markings(markings, launch)
    skippable = analysis.skippable_pcs(markings, launch)
    dr_loads = [
        inst for inst in program.instructions if inst.pc in skippable and inst.is_load
    ]
    if not dr_loads:
        return []
    liveness = Liveness(program, cfg)
    out = []
    for store in program.instructions:
        if not store.is_store or not cfg.is_reachable_pc(store.pc):
            continue
        if markings.get(store.pc, Marking.VECTOR) is not Marking.VECTOR:
            continue
        live = liveness.live_out_at(store.pc)
        for load in dr_loads:
            dest = load.dest_register()
            if dest is None or ("r", dest.name) not in live:
                continue
            if load.mem is None or store.mem is None or load.mem.space is not store.mem.space:
                continue
            out.append(
                Finding(
                    rule="store-invalidation",
                    severity=WARNING,
                    pc=store.pc,
                    message=f"vector store at {store.pc:#06x} to {store.mem.space} while the "
                    f"DR-skipped load of ${dest.name} at {load.pc:#06x} is live "
                    "(relies on Section 4.4 load invalidation)",
                    excerpt=_excerpt(program, markings, store.pc),
                )
            )
    return out
