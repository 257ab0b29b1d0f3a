"""DARSIE's static compiler pass (Section 4.2).

Marks every instruction *definitely redundant* (DR), *conditionally
redundant* (CR) or *vector* (V):

1. Intrinsic seeds: block indices/dimensions, grid dimensions, scalar
   constants, kernel parameters and the shared-memory base are DR;
   ``tid.x`` is CR ("we limit the analysis to only threadIdx.x" — the
   studied applications use at most 2D TBs); every other lane-varying
   intrinsic (``tid.y``, ``laneid``, ``warpid``) is V.
2. Propagation: the program-dependence information is iterated to a
   fixpoint; each instruction takes the *weakest* marking reaching any
   of its source operands (including address registers and the guard
   predicate), and each register takes the weakest marking of any
   instruction defining it.
3. Loads "that access redundant or conditionally redundant addresses
   (and their corresponding output registers) are also marked" — their
   marking follows the address.
4. Atomics are always vector (each warp observes a different old value).

The pass only *adds hints*; the instruction stream is unchanged
(Section 4.2), so binaries run unmodified on non-DARSIE hardware.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.taxonomy import Marking
from repro.isa.instructions import Instruction
from repro.isa.operands import Immediate, Param, Predicate, Register, Special
from repro.isa.program import Program


class UninitializedReadWarning(UserWarning):
    """A kernel reads a register that no path has written (see below)."""


class UninitializedReadError(ValueError):
    """Strict-mode rejection of a kernel with read-before-write registers."""


def _intrinsic_marking(operand, enable_3d: bool = False) -> Optional[Marking]:
    """Marking of a non-register operand, or None for registers."""
    if isinstance(operand, Immediate) or isinstance(operand, Param):
        return Marking.REDUNDANT
    if isinstance(operand, Special):
        if operand.is_tb_uniform:
            return Marking.REDUNDANT
        if operand.is_conditionally_redundant:
            return Marking.CONDITIONAL
        if enable_3d and operand.name == "tid.y":
            # 3D extension: tid.y is conditionally redundant under the
            # stricter x*y criterion (Section 2's 3D observation).
            return Marking.CONDITIONAL_Y
        return Marking.VECTOR
    return None


@dataclass
class CompilerAnalysis:
    """Result of the static pass for one program."""

    program: Program
    instruction_markings: Dict[int, Marking]
    register_markings: Dict[str, Marking]
    predicate_markings: Dict[str, Marking]
    #: reads of never-written registers found by reaching definitions —
    #: the places where the pass's "unwritten register is DR" default
    #: actually fired (empty for every well-formed kernel).
    uninitialized_reads: Tuple = field(default_factory=tuple)

    def skippable_pcs(self, markings: Optional[Dict[int, Marking]] = None) -> Set[int]:
        """PCs eligible for the PC skip table under ``markings``.

        Only register-producing instructions can be skipped (their value
        is shared through renaming); stores, branches, barriers, atomics
        and exits always execute in every warp.
        """
        markings = markings if markings is not None else self.instruction_markings
        pcs = set()
        for inst in self.program.instructions:
            if markings.get(inst.pc) is not Marking.REDUNDANT:
                continue
            if inst.dest_register() is None and inst.dest_predicate() is None:
                continue
            if inst.is_atomic:
                continue
            pcs.add(inst.pc)
        return pcs

    def annotated_listing(self, markings: Optional[Dict[int, Marking]] = None) -> str:
        """Figure 6-style listing with a DR/CR/V column per instruction."""
        markings = markings if markings is not None else self.instruction_markings
        return self.program.listing(
            annotate=lambda inst: markings.get(inst.pc, Marking.VECTOR).short
        )

    def counts(self) -> Dict[Marking, int]:
        out = {m: 0 for m in Marking}
        for mark in self.instruction_markings.values():
            out[mark] += 1
        return out


def analyze_program(
    program: Program, enable_3d: bool = False, strict: bool = False
) -> CompilerAnalysis:
    """Run the static redundancy-marking pass to a fixpoint.

    The analysis is flow-insensitive over registers (a register's class
    is the weakest of all its definitions), which is conservative: it can
    only demote a skippable instruction to vector, never the reverse, so
    it preserves the non-speculative guarantee the paper requires.

    **Precondition** (checked): every register and predicate is written
    before it is read on every path from entry.  The pass defaults a
    register with no recorded definition to DR — sound only because the
    machine architecturally zero-fills registers, which is TB-uniform.
    A kernel that actually *relies* on that implicit zero is almost
    always a porting bug, so reaching definitions are consulted: any
    genuinely uninitialized read raises :class:`UninitializedReadError`
    when ``strict`` is true, and otherwise emits an
    :class:`UninitializedReadWarning` (the same condition the
    ``uninitialized-read`` rule of :mod:`repro.staticlib.lint` reports)
    and is recorded on :attr:`CompilerAnalysis.uninitialized_reads`.

    ``enable_3d`` turns on the 3D extension: ``tid.y`` seeds the
    CONDITIONAL_Y class, promoted at launch under the ``x*y`` criterion
    (off by default — the paper limits its analysis to ``tid.x``).
    """
    # Deferred import: staticlib's linter layer consumes this module.
    from repro.staticlib.reaching import find_uninitialized_reads

    uninitialized = find_uninitialized_reads(program)
    if uninitialized:
        detail = ", ".join(
            f"{u.display_name}@{u.pc:#06x}" for u in uninitialized[:8]
        )
        message = (
            f"{program.name}: {len(uninitialized)} read(s) of never-written "
            f"registers ({detail}); the marking pass would treat them as "
            "uniformly zero"
        )
        if strict:
            raise UninitializedReadError(message)
        warnings.warn(message, UninitializedReadWarning, stacklevel=2)

    # Optimistic initialisation at the strongest marking; the meet-based
    # update is monotonically decreasing, so iteration terminates.
    reg_mark: Dict[str, Marking] = {}
    pred_mark: Dict[str, Marking] = {}
    inst_mark: Dict[int, Marking] = {}

    def reg_of(name: str, table: Dict[str, Marking]) -> Marking:
        # A register read before any write holds zeros in every lane of
        # every warp — uniform, hence definitely redundant (see the
        # checked precondition in the docstring: this default is only
        # reached for genuinely uninitialized reads, which are linted).
        return table.get(name, Marking.REDUNDANT)

    # Kleene iteration from the top of a finite lattice: every iteration
    # that reports a change strictly lowers at least one register or
    # predicate marking (instruction marks settle one sweep later), so
    # the principled bound is lattice height x table entries, plus the
    # settle/detect sweeps — not `len(program) + 2`, which a dependence
    # chain of one register per instruction ran within one sweep of.
    num_vars = len(
        {r.name for inst in program.instructions for r in inst.source_registers()}
        | {inst.dest_register().name for inst in program.instructions
           if inst.dest_register() is not None}
    ) + len(
        {p.name for inst in program.instructions for p in inst.source_predicates()}
        | {inst.dest_predicate().name for inst in program.instructions
           if inst.dest_predicate() is not None}
    )
    lattice_height = len(Marking) - 1
    max_iterations = lattice_height * num_vars + 3

    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"compiler pass failed to converge within {max_iterations} "
                f"iterations (lattice height {lattice_height} x {num_vars} variables)"
            )
        new_reg: Dict[str, Marking] = {}
        new_pred: Dict[str, Marking] = {}
        for inst in program.instructions:
            mark = _instruction_marking(inst, reg_mark, pred_mark, reg_of, enable_3d)
            if inst_mark.get(inst.pc) != mark:
                inst_mark[inst.pc] = mark
                changed = True
            dest = inst.dest_register()
            if dest is not None:
                prev = new_reg.get(dest.name, Marking.REDUNDANT)
                new_reg[dest.name] = Marking.meet(prev, mark)
            dpred = inst.dest_predicate()
            if dpred is not None:
                prev = new_pred.get(dpred.name, Marking.REDUNDANT)
                new_pred[dpred.name] = Marking.meet(prev, mark)
        if new_reg != reg_mark or new_pred != pred_mark:
            reg_mark, pred_mark = new_reg, new_pred
            changed = True

    return CompilerAnalysis(
        program=program,
        instruction_markings=inst_mark,
        register_markings=reg_mark,
        predicate_markings=pred_mark,
        uninitialized_reads=uninitialized,
    )


def _instruction_marking(
    inst: Instruction, reg_mark, pred_mark, reg_of, enable_3d: bool = False
) -> Marking:
    if inst.is_atomic:
        return Marking.VECTOR
    mark = Marking.REDUNDANT
    for src in inst.srcs:
        if isinstance(src, Register):
            mark = Marking.meet(mark, reg_of(src.name, reg_mark))
        elif isinstance(src, Predicate):
            mark = Marking.meet(mark, reg_of(src.name, pred_mark))
        else:
            intrinsic = _intrinsic_marking(src, enable_3d)
            assert intrinsic is not None
            mark = Marking.meet(mark, intrinsic)
    if inst.mem is not None:
        base_intrinsic = _intrinsic_marking(inst.mem.base, enable_3d)
        if base_intrinsic is not None:
            mark = Marking.meet(mark, base_intrinsic)
        else:
            mark = Marking.meet(mark, reg_of(inst.mem.base.name, reg_mark))
        if inst.mem.index is not None:
            mark = Marking.meet(mark, reg_of(inst.mem.index.name, reg_mark))
    if inst.guard is not None:
        mark = Marking.meet(mark, reg_of(inst.guard.name, pred_mark))
    return mark
