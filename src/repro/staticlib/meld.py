"""DARM-style control-flow melding: divergent arms to predicated code.

A divergent if-then-else costs a SIMT machine twice: the warp serializes
both arms (each at partial lane occupancy), and the reconvergence-stack
traffic flushes the frontend.  Melding rewrites the diamond into
straight-line predicated code: instructions the two arms share (found by
sequence alignment) execute once unguarded, arm-unique instructions
execute under the branch predicate (``@$p`` / ``@!$p``), and the branch
itself disappears.

Soundness rests on how the executor treats predication (and on what
:func:`check_legality` refuses):

- register/predicate writes merge under the execution mask, so a guarded
  instruction cannot touch lanes of the other arm;
- loads mask their addresses to a safe address for inactive lanes and
  stores/atomics skip them, so a fully-masked-off arm instruction has no
  architectural effect;
- the two guards are complementary under the pre-branch active mask, so
  interleaving arm instructions in any order that preserves each arm's
  internal order is execution-equivalent to running the arms back to
  back.

What is *not* legal to predicate: barriers and exits (the executor acts
on them warp-wide regardless of the mask), nested control flow, already
guarded instructions (the ISA has no predicate conjunction), and arms
that redefine their own branch predicate (later guarded instructions
would read the new value).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.isa.instructions import INSTRUCTION_BYTES, Instruction
from repro.isa.program import Program
from repro.staticlib.cfg import ControlFlowGraph
from repro.staticlib.regions import Diamond, arm_instructions, find_diamonds

#: Default similarity bar for profitable melding (DARM's alignment
#: heuristic): meld when at least this fraction of arm instruction slots
#: pair up.  ``DARM-IDEAL`` ignores the bar and melds every legal region.
DEFAULT_THRESHOLD = 0.3


class MeldError(RuntimeError):
    """An internal invariant of the melder was violated."""


def instruction_key(inst: Instruction) -> Tuple:
    """Alignment identity: everything but position and guard."""
    return (
        inst.opcode,
        inst.dtype,
        inst.cmp,
        str(inst.dst),
        tuple(str(s) for s in inst.srcs),
        str(inst.mem),
    )


def diamond_signature(program: Program, diamond: Diamond) -> Tuple:
    """Position-independent identity of a diamond (stable across the PC
    renumbering earlier melds cause), used to remember rejected melds."""
    branch = program.at(diamond.branch_pc)
    return (
        instruction_key(branch),
        str(branch.guard),
        branch.guard_negated,
        tuple(instruction_key(i) for i in arm_instructions(program, diamond.taken_arm, diamond.join_pc)),
        tuple(instruction_key(i) for i in arm_instructions(program, diamond.fall_arm, diamond.join_pc)),
    )


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------


def check_legality(program: Program, diamond: Diamond) -> Optional[str]:
    """Reason the diamond cannot be melded, or ``None`` when it can."""
    branch = program.at(diamond.branch_pc)
    if branch.guard is None:
        return "branch is unconditional"
    guard_name = branch.guard.name
    for arm in diamond.arm_blocks():
        body = arm_instructions(program, arm, diamond.join_pc)
        for inst in body:
            if inst.is_branch:
                return f"nested branch at {inst.pc:#06x}"
            if inst.is_barrier:
                return f"bar.sync at {inst.pc:#06x} acts warp-wide regardless of the mask"
            if inst.is_exit:
                return f"exit at {inst.pc:#06x} retires the warp regardless of the mask"
            if inst.guard is not None:
                return f"instruction at {inst.pc:#06x} is already predicated"
            dp = inst.dest_predicate()
            if dp is not None and dp.name == guard_name:
                return f"arm redefines branch predicate ${guard_name} at {inst.pc:#06x}"
    return None


# ---------------------------------------------------------------------------
# Alignment and scoring
# ---------------------------------------------------------------------------


def align_arms(
    taken: Sequence[Instruction], fall: Sequence[Instruction]
) -> List[Tuple[int, int]]:
    """Longest common subsequence of the two arms' instruction keys.

    Returns matched index pairs ``(i, j)`` in increasing order; matched
    instructions are emitted once, unguarded.
    """
    tk = [instruction_key(i) for i in taken]
    fk = [instruction_key(i) for i in fall]
    n, m = len(tk), len(fk)
    # Classic DP table; arms are tiny (a handful of instructions).
    lcs = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if tk[i] == fk[j]:
                lcs[i][j] = lcs[i + 1][j + 1] + 1
            else:
                lcs[i][j] = max(lcs[i + 1][j], lcs[i][j + 1])
    pairs: List[Tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        if tk[i] == fk[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif lcs[i + 1][j] >= lcs[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


@dataclass(frozen=True)
class MeldPlan:
    """A scored, legal meld of one diamond."""

    diamond: Diamond
    matched: int
    taken_len: int
    fall_len: int

    @property
    def melded_len(self) -> int:
        return self.taken_len + self.fall_len - self.matched

    @property
    def similarity(self) -> float:
        """DARM's alignment profitability: fraction of arm slots paired."""
        total = self.taken_len + self.fall_len
        return (2.0 * self.matched / total) if total else 0.0

    @property
    def saved_slots(self) -> int:
        """Static instruction slots the rewrite removes (branch, arm
        ``bra join`` terminators, one copy of each matched pair)."""
        region = self.diamond.join_pc - self.diamond.branch_pc
        return region // INSTRUCTION_BYTES - self.melded_len

    def profitable(self, threshold: float = DEFAULT_THRESHOLD) -> bool:
        return self.similarity >= threshold


def plan_meld(program: Program, diamond: Diamond) -> MeldPlan:
    taken = arm_instructions(program, diamond.taken_arm, diamond.join_pc)
    fall = arm_instructions(program, diamond.fall_arm, diamond.join_pc)
    return MeldPlan(
        diamond=diamond,
        matched=len(align_arms(taken, fall)),
        taken_len=len(taken),
        fall_len=len(fall),
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _predicated(inst: Instruction, branch: Instruction, negate: bool) -> dict:
    """Replacement fields predicating ``inst`` under the branch guard."""
    return {
        "guard": branch.guard,
        "guard_negated": branch.guard_negated ^ negate,
    }


def _melded_sequence(program: Program, diamond: Diamond) -> List[Tuple[Instruction, Optional[dict]]]:
    """The diamond's replacement: ``(source instruction, guard fields)``
    in emission order; ``None`` guard fields mean emit unguarded."""
    branch = program.at(diamond.branch_pc)
    taken = arm_instructions(program, diamond.taken_arm, diamond.join_pc)
    fall = arm_instructions(program, diamond.fall_arm, diamond.join_pc)
    on_taken = _predicated(branch, branch, negate=False)
    on_fall = _predicated(branch, branch, negate=True)
    out: List[Tuple[Instruction, Optional[dict]]] = []
    i = j = 0
    for ti, fj in align_arms(taken, fall):
        out.extend((inst, on_taken) for inst in taken[i:ti])
        out.extend((inst, on_fall) for inst in fall[j:fj])
        out.append((taken[ti], None))
        i, j = ti + 1, fj + 1
    out.extend((inst, on_taken) for inst in taken[i:])
    out.extend((inst, on_fall) for inst in fall[j:])
    return out


def apply_meld(program: Program, diamond: Diamond) -> Program:
    """Re-materialize ``program`` with one diamond melded away.

    Every surviving instruction is rebuilt with its new PC, a cleared
    cached ``text`` (so listings show the new guards) and a cleared
    marking (the melded program is re-analyzed from scratch); branch
    targets and labels are remapped through the renumbering.
    """
    reason = check_legality(program, diamond)
    if reason is not None:
        raise MeldError(f"illegal meld at {diamond.branch_pc:#06x}: {reason}")
    prefix = [i for i in program.instructions if i.pc < diamond.branch_pc]
    suffix = [i for i in program.instructions if i.pc >= diamond.join_pc]
    middle = _melded_sequence(program, diamond)

    # New PC of every surviving old PC (the splice preserves order).
    pc_map = {}
    pc = 0
    for inst in prefix:
        pc_map[inst.pc] = pc
        pc += INSTRUCTION_BYTES
    pc += len(middle) * INSTRUCTION_BYTES
    # A branch targeting the (deleted) branch PC or an arm PC cannot
    # exist — the arms are single-predecessor and the branch terminates
    # its block — but a branch to the join must follow it to its new
    # home, as must one to the branch block's start when the branch is
    # its own leader (the region's entry simply became the melded code).
    pc_map[diamond.branch_pc] = len(prefix) * INSTRUCTION_BYTES
    for inst in suffix:
        pc_map[inst.pc] = pc
        pc += INSTRUCTION_BYTES

    def rebuild(inst: Instruction, new_pc: int, index: int, extra: Optional[dict]) -> Instruction:
        fields = dict(pc=new_pc, index=index, text="")
        if extra:
            fields.update(extra)
        if inst.is_branch:
            old_target = inst.target_pc
            if old_target not in pc_map:
                raise MeldError(
                    f"branch at {inst.pc:#06x} targets melded-away pc {old_target:#06x}"
                )
            fields["target_pc"] = pc_map[old_target]
        return replace(inst, **fields)

    new_insts: List[Instruction] = []
    for inst in prefix:
        new_insts.append(rebuild(inst, pc_map[inst.pc], len(new_insts), None))
    for inst, extra in middle:
        new_insts.append(
            rebuild(inst, len(new_insts) * INSTRUCTION_BYTES, len(new_insts), extra)
        )
    for inst in suffix:
        new_insts.append(rebuild(inst, pc_map[inst.pc], len(new_insts), None))

    labels = {
        name: pc_map[old] for name, old in program.labels.items() if old in pc_map
    }
    return Program(
        name=program.name,
        instructions=new_insts,
        labels=labels,
        params=program.params,
        shared_words=program.shared_words,
    )


# ---------------------------------------------------------------------------
# Whole-program driver (one step at a time, for the pass pipeline)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeldRecord:
    """What one committed (or rejected) meld did."""

    branch_pc: int
    join_pc: int
    matched: int
    taken_len: int
    fall_len: int
    similarity: float
    saved_slots: int

    @classmethod
    def from_plan(cls, plan: MeldPlan) -> "MeldRecord":
        return cls(
            branch_pc=plan.diamond.branch_pc,
            join_pc=plan.diamond.join_pc,
            matched=plan.matched,
            taken_len=plan.taken_len,
            fall_len=plan.fall_len,
            similarity=plan.similarity,
            saved_slots=plan.saved_slots,
        )


def meldable_plans(
    program: Program,
    threshold: Optional[float] = DEFAULT_THRESHOLD,
    cfg: Optional[ControlFlowGraph] = None,
) -> List[MeldPlan]:
    """Legal (and, unless ``threshold`` is ``None``, profitable) melds
    available in ``program`` right now, in PC order."""
    plans = []
    for diamond in find_diamonds(program, cfg):
        if check_legality(program, diamond) is not None:
            continue
        plan = plan_meld(program, diamond)
        if threshold is not None and not plan.profitable(threshold):
            continue
        plans.append(plan)
    return plans
