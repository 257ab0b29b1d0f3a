"""Program representation: instruction list, basic blocks, reconvergence.

The SIMT executor needs, for every (potentially divergent) branch, the
*reconvergence PC* — the immediate post-dominator of the branch — to
drive the per-warp SIMT reconvergence stack.  :class:`Program` computes
it once at construction and keeps only that map; the static-analysis
layer builds its own edge view (:mod:`repro.staticlib.cfg`) and shares
the dominator routine below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.isa.instructions import INSTRUCTION_BYTES, Instruction

#: Virtual CFG node representing kernel completion.
EXIT_NODE = -1


def reverse_postorder(root: int, succ: Mapping[int, Sequence[int]]) -> List[int]:
    """Nodes reachable from ``root`` in depth-first reverse postorder,
    visiting each node's successors in edge order."""
    post: List[int] = []
    seen = set()
    # Iterative DFS with an explicit finish phase for postorder.
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        node, finished = stack.pop()
        if finished:
            post.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for s in reversed(succ.get(node, ())):
            if s not in seen:
                stack.append((s, False))
    post.reverse()
    return post


def immediate_dominators(root: int, succ: Mapping[int, Sequence[int]]) -> Dict[int, int]:
    """Immediate dominator of every node reachable from ``root``.

    The Cooper-Harvey-Kennedy iteration over reverse postorder, with no
    sparse-tree tricks: kernels here are tens of blocks at most.
    ``idom[root] == root``; nodes unreachable from ``root`` are absent.
    Over the reversed edge map rooted at :data:`EXIT_NODE` this gives
    immediate post-dominators.
    """
    order = reverse_postorder(root, succ)
    index = {node: i for i, node in enumerate(order)}
    preds: Dict[int, List[int]] = {node: [] for node in order}
    for node in order:
        for s in succ.get(node, ()):
            preds[s].append(node)
    idom = {root: root}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            # Reverse postorder puts a DFS parent first, so one
            # predecessor is always settled.
            settled = [p for p in preds[node] if p in idom]
            new = settled[0]
            for p in settled[1:]:
                new = intersect(new, p)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return idom


@dataclass
class BasicBlock:
    """A maximal straight-line sequence of instructions."""

    index: int
    start_pc: int
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def end_pc(self) -> int:
        return self.instructions[-1].pc

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


class Program:
    """An assembled kernel.

    Parameters
    ----------
    name:
        Kernel name from the ``.kernel`` directive.
    instructions:
        Decoded instructions in PC order (PC = index * 8).
    labels:
        Label name → PC map.
    params:
        Declared kernel parameter names, in declaration order.
    shared_words:
        Statically allocated shared memory size in 32-bit words.
    """

    def __init__(
        self,
        name: str,
        instructions: List[Instruction],
        labels: Dict[str, int],
        params: Tuple[str, ...] = (),
        shared_words: int = 0,
    ):
        self.name = name
        self.instructions = instructions
        self.labels = dict(labels)
        self.params = tuple(params)
        self.shared_words = shared_words
        self._by_pc = {inst.pc: inst for inst in instructions}
        self.blocks: List[BasicBlock] = []
        self._block_of_pc: Dict[int, int] = {}
        self._reconvergence: Dict[int, Optional[int]] = {}
        self._build_blocks()
        self._compute_reconvergence()

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def at(self, pc: int) -> Instruction:
        """The instruction at byte address ``pc``."""
        try:
            return self._by_pc[pc]
        except KeyError:
            raise KeyError(f"no instruction at pc {pc:#x}") from None

    @property
    def end_pc(self) -> int:
        """One past the last valid PC."""
        return len(self.instructions) * INSTRUCTION_BYTES

    def block_of(self, pc: int) -> BasicBlock:
        """The basic block containing ``pc``."""
        return self.blocks[self._block_of_pc[pc]]

    def reconvergence_pc(self, branch_pc: int) -> Optional[int]:
        """Reconvergence point (immediate post-dominator) for a branch.

        Returns ``None`` when the paths only rejoin at kernel exit.
        """
        return self._reconvergence[branch_pc]

    def branch_pcs(self) -> List[int]:
        return [inst.pc for inst in self.instructions if inst.is_branch]

    # -- construction ----------------------------------------------------

    def _build_blocks(self) -> None:
        leaders = {0}
        for inst in self.instructions:
            if inst.is_branch:
                assert inst.target_pc is not None
                leaders.add(inst.target_pc)
                nxt = inst.pc + INSTRUCTION_BYTES
                if nxt < self.end_pc:
                    leaders.add(nxt)
            elif inst.is_exit:
                nxt = inst.pc + INSTRUCTION_BYTES
                if nxt < self.end_pc:
                    leaders.add(nxt)
        ordered = sorted(leaders)
        for bidx, start in enumerate(ordered):
            stop = ordered[bidx + 1] if bidx + 1 < len(ordered) else self.end_pc
            block = BasicBlock(index=bidx, start_pc=start)
            pc = start
            while pc < stop:
                block.instructions.append(self._by_pc[pc])
                self._block_of_pc[pc] = bidx
                pc += INSTRUCTION_BYTES
            self.blocks.append(block)

    def _compute_reconvergence(self) -> None:
        """Immediate post-dominator of each branch block.

        Edges follow the SIMT rule: a predicated ``exit`` adds only its
        fall-through edge, since lanes that leave just go inactive.
        Post-dominators are dominators of the reversed edge map rooted
        at the virtual exit.  A branch reconverges at ``None`` when its
        paths only rejoin at kernel exit or its block never reaches it.
        """
        succ: Dict[int, List[int]] = {}
        for block in self.blocks:
            term = block.terminator
            edges = succ[block.index] = []
            if term.is_exit and term.guard is None:
                edges.append(EXIT_NODE)
                continue
            if term.is_branch:
                edges.append(self._block_of_pc[term.target_pc])
                if term.guard is None:
                    continue  # unconditional branch: no fall-through
            # Fall-through edge (also for predicated exit / branch).
            nxt = term.pc + INSTRUCTION_BYTES
            edges.append(self._block_of_pc[nxt] if nxt < self.end_pc else EXIT_NODE)
        reverse: Dict[int, List[int]] = {}
        for block_index, edges in succ.items():
            for s in edges:
                reverse.setdefault(s, []).append(block_index)
        ipdom = immediate_dominators(EXIT_NODE, reverse)
        for inst in self.instructions:
            if inst.is_branch:
                node = ipdom.get(self._block_of_pc[inst.pc], EXIT_NODE)
                self._reconvergence[inst.pc] = (
                    None if node == EXIT_NODE else self.blocks[node].start_pc
                )

    # -- pretty printing ---------------------------------------------------

    def listing(self, annotate=None) -> str:
        """Disassembly listing; ``annotate(inst) -> str`` adds a column."""
        pc_to_label = {pc: lbl for lbl, pc in self.labels.items()}
        lines = [f".kernel {self.name}"]
        for pname in self.params:
            lines.append(f".param {pname}")
        if self.shared_words:
            lines.append(f".shared {self.shared_words}")
        for inst in self.instructions:
            if inst.pc in pc_to_label:
                lines.append(f"{pc_to_label[inst.pc]}:")
            prefix = f"  {annotate(inst):>4} " if annotate else "  "
            lines.append(f"{prefix}{inst.pc:#06x}  {inst}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Program({self.name!r}, {len(self.instructions)} insns, {len(self.blocks)} blocks)"
