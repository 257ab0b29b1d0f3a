"""The PC coalescer (Section 4.3.4).

"The PC coalescer acts like the global memory coalescer in the load/store
unit, except instead of coalescing global memory addresses to cache
lines, it coalesces PCs based on exact matches."  It bounds the number of
skip-table ports needed per cycle: warps skipping the *same* PC in the
same cycle share one access; distinct PCs beyond the port count wait for
the next cycle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class PCCoalescer:
    """Groups per-cycle skip candidates by PC under a port budget."""

    def __init__(self, ports: int = 2):
        if ports < 1:
            raise ValueError("coalescer needs at least one port")
        self.ports = ports

    def arbitrate(
        self, candidates: Sequence[Tuple[int, int]]
    ) -> Tuple[List[Tuple[int, List[int]]], List[Tuple[int, int]]]:
        """Arbitrate ``(warp_id, pc)`` candidates for this cycle.

        Returns ``(serviced, deferred)`` where ``serviced`` is a list of
        ``(pc, [warp_ids])`` groups — at most :attr:`ports` of them — and
        ``deferred`` is the remaining candidates, to be retried next
        cycle.  Groups are serviced oldest-PC-first (insertion order) so
        no PC starves.
        """
        groups: Dict[int, List[int]] = {}
        for warp_id, pc in candidates:
            groups.setdefault(pc, []).append(warp_id)
        ordered = list(groups.items())
        deferred = [(w, pc) for pc, warps in ordered[self.ports :] for w in warps]
        return ordered[: self.ports], deferred
