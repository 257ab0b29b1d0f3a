"""Generic gen/kill dataflow solver over a :class:`ControlFlowGraph`.

Both analyses the framework ships (reaching definitions, liveness) are
*may* analyses — the meet over paths is set union — so one worklist
solver covers them:

- **forward**: ``in[b] = U out[p] for p in pred(b)``,
  ``out[b] = gen[b] | (in[b] - kill[b])``, entry seeded with
  ``boundary``;
- **backward**: ``out[b] = U in[s] for s in succ(b)``,
  ``in[b] = gen[b] | (out[b] - kill[b])``, exit edges seeded with
  ``boundary``.

Facts are opaque hashable values.  Unreachable blocks keep empty fact
sets — they contribute nothing to any path from entry, and the linter
reports them separately.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Mapping, Tuple

from repro.isa.program import EXIT_NODE
from repro.staticlib.cfg import ControlFlowGraph

Facts = FrozenSet[Hashable]


def solve_gen_kill(
    cfg: ControlFlowGraph,
    gen: Mapping[int, Facts],
    kill: Mapping[int, Facts],
    direction: str = "forward",
    boundary: Facts = frozenset(),
) -> Tuple[Dict[int, Facts], Dict[int, Facts]]:
    """Solve a union-meet gen/kill problem to a fixpoint.

    Returns ``(in_facts, out_facts)`` keyed by block index.  The solver
    iterates reachable blocks in reverse postorder (forward) or its
    reverse (backward), which converges in a couple of sweeps for the
    reducible CFGs kernels produce, and terminates for any CFG because
    the transfer functions are monotone over a finite powerset.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    forward = direction == "forward"
    order = cfg.rpo if forward else tuple(reversed(cfg.rpo))
    reachable = cfg.reachable
    empty: Facts = frozenset()

    in_facts: Dict[int, Facts] = {b.index: empty for b in cfg.program.blocks}
    out_facts: Dict[int, Facts] = {b.index: empty for b in cfg.program.blocks}

    changed = True
    while changed:
        changed = False
        for block in order:
            if forward:
                if block == 0:
                    merged = boundary
                else:
                    merged = empty
                    for p in cfg.pred.get(block, ()):
                        if p in reachable:
                            merged = merged | out_facts[p]
                if merged != in_facts[block]:
                    in_facts[block] = merged
                new_out = gen.get(block, empty) | (merged - kill.get(block, empty))
                if new_out != out_facts[block]:
                    out_facts[block] = new_out
                    changed = True
            else:
                merged = empty
                for s in cfg.succ.get(block, ()):
                    if s == EXIT_NODE:
                        merged = merged | boundary
                    elif s in reachable:
                        merged = merged | in_facts[s]
                if merged != out_facts[block]:
                    out_facts[block] = merged
                new_in = gen.get(block, empty) | (merged - kill.get(block, empty))
                if new_in != in_facts[block]:
                    in_facts[block] = new_in
                    changed = True
    return in_facts, out_facts
