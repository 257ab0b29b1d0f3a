"""Majority-path mask (Section 4.3.3).

One bit per warp of a TB indicates whether the warp is executing on the
TB-majority control-flow path.  Warps that deviate (or suffer SIMD
divergence, Section 4.5) have their bit cleared and stop participating
in instruction skipping.  ``syncthreads`` sets all live warps' bits back
to one, since the whole TB is in sync again.
"""

from __future__ import annotations

from typing import List, Set


class MajorityPathMask:
    """Per-TB majority-path bookkeeping.

    The sorted member list is kept, and rebuilt only when membership
    changes: the skip engine reads it on every follower skip.
    :meth:`members` returns that list itself, so callers must not mutate
    it; a rebuild binds a new list, so a caller iterating the old one
    keeps a consistent snapshot.
    """

    def __init__(self, num_warps: int):
        self.num_warps = num_warps
        #: the on-path warp ids (read-only outside this class)
        self.on_path: Set[int] = set(range(num_warps))
        self._exited: Set[int] = set()
        self._members: List[int] = list(range(num_warps))

    def clear(self, warp_id: int) -> None:
        """Warp left the majority path (divergence)."""
        if warp_id in self.on_path:
            self.on_path.discard(warp_id)
            self._members = sorted(self.on_path)

    def warp_exited(self, warp_id: int) -> None:
        """An exited warp neither skips nor blocks synchronization."""
        self._exited.add(warp_id)
        self.clear(warp_id)

    def reset_at_syncthreads(self) -> None:
        """All bits set back to one at a TB-wide ``bar.sync``."""
        self.on_path = set(range(self.num_warps)) - self._exited
        self._members = sorted(self.on_path)

    def members(self) -> List[int]:
        """The on-path warp ids, ascending (the kept list: do not mutate)."""
        return self._members

    @property
    def count(self) -> int:
        return len(self.on_path)

    def bitmask(self) -> int:
        mask = 0
        for w in self.on_path:
            mask |= 1 << w
        return mask
