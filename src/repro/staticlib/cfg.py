"""Control-flow graph view for the static-analysis layer.

:class:`repro.isa.program.Program` already partitions instructions into
basic blocks and computes reconvergence points for the SIMT stack.  The
analyses in :mod:`repro.staticlib` need more graph structure than the
executor does — predecessor maps, reachability, deterministic traversal
orders, and a distinction between *explicit* kernel exit (an ``exit``
instruction) and *implicit* exit (control falling off the end of the
instruction stream).  :class:`ControlFlowGraph` derives all of that from
a ``Program`` without mutating it, and is deliberately tolerant of
malformed programs (e.g. a branch whose target was corrupted to a
non-instruction PC) so the linter can report on them instead of
crashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.program import EXIT_NODE, BasicBlock, Program, reverse_postorder


@dataclass(frozen=True)
class ControlFlowGraph:
    """Immutable CFG over a program's basic blocks.

    Nodes are basic-block indices plus the virtual :data:`EXIT_NODE`.
    Edge construction distinguishes branch-taken, fallthrough and exit
    edges; a predicated ``exit`` contributes *both* an exit edge and a
    fallthrough edge (the lanes whose guard is false continue).
    """

    program: Program
    #: block index -> successor block indices (may include EXIT_NODE)
    succ: Dict[int, Tuple[int, ...]]
    #: block index (incl. EXIT_NODE) -> predecessor block indices
    pred: Dict[int, Tuple[int, ...]]
    #: blocks reachable from the entry block
    reachable: FrozenSet[int]
    #: reverse postorder over reachable blocks, entry first
    rpo: Tuple[int, ...]
    #: reachable-or-not blocks whose control can run off the end of the
    #: instruction stream (implicit exit with no ``exit`` instruction)
    fallthrough_exit: FrozenSet[int]
    #: PCs of branches whose target is not a valid instruction PC
    broken_branch_pcs: Tuple[int, ...]

    # -- construction ----------------------------------------------------

    @classmethod
    def from_program(cls, program: Program) -> "ControlFlowGraph":
        pc_to_block: Dict[int, int] = {}
        for block in program.blocks:
            for inst in block:
                pc_to_block[inst.pc] = block.index

        succ: Dict[int, List[int]] = {b.index: [] for b in program.blocks}
        fallthrough_exit = set()
        broken: List[int] = []
        for block in program.blocks:
            term = block.terminator
            edges = succ[block.index]
            if term.is_exit and term.guard is None:
                edges.append(EXIT_NODE)
                continue
            if term.is_exit:
                # Predicated exit: some lanes leave, the rest fall through.
                edges.append(EXIT_NODE)
            if term.is_branch:
                tgt = term.target_pc
                if tgt is None or tgt not in pc_to_block:
                    broken.append(term.pc)
                else:
                    edges.append(pc_to_block[tgt])
                if term.guard is None:
                    continue  # unconditional branch: no fallthrough
            nxt = term.pc + INSTRUCTION_BYTES
            if nxt < program.end_pc:
                edges.append(pc_to_block[nxt])
            else:
                edges.append(EXIT_NODE)
                fallthrough_exit.add(block.index)

        succ_t = {b: tuple(dict.fromkeys(e)) for b, e in succ.items()}
        pred: Dict[int, List[int]] = {b.index: [] for b in program.blocks}
        pred[EXIT_NODE] = []
        for b, edges in succ_t.items():
            for s in edges:
                pred[s].append(b)
        pred_t = {b: tuple(p) for b, p in pred.items()}

        # The walk passes through the exit node but never past it.
        rpo = tuple(b for b in reverse_postorder(0, succ_t) if b != EXIT_NODE)
        return cls(
            program=program,
            succ=succ_t,
            pred=pred_t,
            reachable=frozenset(rpo),
            rpo=rpo,
            fallthrough_exit=frozenset(fallthrough_exit),
            broken_branch_pcs=tuple(broken),
        )

    # -- queries ---------------------------------------------------------

    @property
    def blocks(self) -> List[BasicBlock]:
        return self.program.blocks

    def block_of_pc(self, pc: int) -> BasicBlock:
        return self.program.block_of(pc)

    def is_reachable_pc(self, pc: int) -> bool:
        return self.program.block_of(pc).index in self.reachable

    def region_between(self, branch_pc: int, stop_pc=None) -> FrozenSet[int]:
        """Blocks on paths from a branch's successors up to (excluding)
        the block starting at ``stop_pc``.

        This is the *divergent region* of a branch: with ``stop_pc`` the
        branch's reconvergence point (immediate post-dominator), these
        are exactly the blocks that can execute while the warp's lanes
        are split between the taken and fallthrough paths.  ``stop_pc``
        of ``None`` means the paths only rejoin at kernel exit, so the
        region extends to every block reachable from the branch.
        """
        branch_block = self.program.block_of(branch_pc).index
        stop_block = None
        if stop_pc is not None:
            stop_block = self.program.block_of(stop_pc).index
        region: set = set()
        stack = [s for s in self.succ.get(branch_block, ()) if s != EXIT_NODE]
        while stack:
            node = stack.pop()
            if node == stop_block or node in region:
                continue
            region.add(node)
            for s in self.succ.get(node, ()):
                if s != EXIT_NODE:
                    stack.append(s)
        return frozenset(region)
