"""Divergent-region discovery: the SESE diamonds a melder can rewrite.

DARM-style control-flow melding (Saumya et al.) operates on the simplest
single-entry/single-exit divergent region there is: an if-then-else
*diamond* — a conditional branch whose two successor arms are
straight-line blocks that both flow into the branch's reconvergence
point (its immediate post-dominator), with no other way in or out.  A
*triangle* (if-then with an empty else) is the degenerate diamond where
one successor already is the join block.

This module only finds candidate shapes; whether an arm's contents are
legal to predicate is :mod:`repro.staticlib.meld`'s job.  The structural
conditions enforced here are what make the rewrite a pure splice:

- the branch block's two successors are distinct and neither is the
  virtual exit;
- each arm has the branch block as its *only* predecessor and the join
  block as its *only* successor (single-entry, single-exit);
- the instructions strictly between the branch and the join are exactly
  the arm instructions (the region is PC-contiguous), so the melded
  sequence can replace a contiguous byte range and every surviving
  branch target survives the renumbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.instructions import INSTRUCTION_BYTES, Instruction
from repro.isa.program import EXIT_NODE, Program
from repro.staticlib.cfg import ControlFlowGraph


@dataclass(frozen=True)
class Diamond:
    """One meldable if-then-else (or if-then) region.

    ``taken_arm`` / ``fall_arm`` are basic-block indices; ``None`` marks
    the empty arm of a triangle whose corresponding branch edge goes
    straight to the join block.
    """

    branch_pc: int
    branch_block: int
    taken_arm: Optional[int]
    fall_arm: Optional[int]
    join_block: int
    join_pc: int

    def arm_blocks(self) -> Tuple[int, ...]:
        return tuple(a for a in (self.taken_arm, self.fall_arm) if a is not None)


def arm_instructions(program: Program, arm: Optional[int], join_pc: int) -> List[Instruction]:
    """The predicable body of one arm: its instructions minus a trailing
    unconditional ``bra`` to the join (a pure layout artifact that the
    melded straight-line form no longer needs)."""
    if arm is None:
        return []
    insts = list(program.blocks[arm].instructions)
    term = insts[-1]
    if term.is_branch and term.guard is None and term.target_pc == join_pc:
        insts = insts[:-1]
    return insts


def _is_simple_arm(
    cfg: ControlFlowGraph, arm: int, branch_block: int, join_block: int
) -> bool:
    """Single predecessor (the branch), single successor (the join)."""
    return (
        cfg.pred.get(arm) == (branch_block,)
        and cfg.succ.get(arm) == (join_block,)
    )


def _contiguous(program: Program, branch_pc: int, join_pc: int, arms: Tuple[int, ...]) -> bool:
    """The deleted byte range [branch_pc+8, join_pc) is exactly the arms."""
    if join_pc <= branch_pc:
        return False
    expected = set(range(branch_pc + INSTRUCTION_BYTES, join_pc, INSTRUCTION_BYTES))
    covered = {inst.pc for arm in arms for inst in program.blocks[arm]}
    return covered == expected


def find_diamonds(
    program: Program, cfg: Optional[ControlFlowGraph] = None
) -> List[Diamond]:
    """All structurally meldable diamonds/triangles, in PC order."""
    if cfg is None:
        cfg = ControlFlowGraph.from_program(program)
    out: List[Diamond] = []
    for block in program.blocks:
        if block.index not in cfg.reachable:
            continue
        term = block.terminator
        if not term.is_branch or term.guard is None:
            continue
        if term.pc in cfg.broken_branch_pcs:
            continue
        join_pc = program.reconvergence_pc(term.pc)
        if join_pc is None:
            continue  # paths rejoin only at exit; not a SESE region
        join_block = program.block_of(join_pc).index
        succs = cfg.succ.get(block.index, ())
        if EXIT_NODE in succs or len(succs) != 2:
            continue
        taken_block = program.block_of(term.target_pc).index
        fall_block = program.block_of(term.pc + INSTRUCTION_BYTES).index
        if taken_block == fall_block:
            continue
        taken_arm: Optional[int] = None if taken_block == join_block else taken_block
        fall_arm: Optional[int] = None if fall_block == join_block else fall_block
        if taken_arm is None and fall_arm is None:
            continue  # both edges reach the join directly; nothing to meld
        arms = tuple(a for a in (taken_arm, fall_arm) if a is not None)
        if any(not _is_simple_arm(cfg, a, block.index, join_block) for a in arms):
            continue
        # An arm must not be the branch block itself (self-loop) or the
        # join; _is_simple_arm's pred/succ shape already excludes loops,
        # but be explicit about degenerate overlap.
        if block.index in arms or join_block in arms:
            continue
        if not _contiguous(program, term.pc, join_pc, arms):
            continue
        out.append(
            Diamond(
                branch_pc=term.pc,
                branch_block=block.index,
                taken_arm=taken_arm,
                fall_arm=fall_arm,
                join_block=join_block,
                join_pc=join_pc,
            )
        )
    return out
