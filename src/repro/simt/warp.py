"""Warp state and the SIMT reconvergence stack.

Divergence handling follows the classic immediate-post-dominator stack
(the baseline GPGPU-Sim model the paper builds on): a divergent branch
pushes the not-taken and taken paths with the branch's reconvergence PC;
a warp pops an entry when its PC reaches the entry's reconvergence PC.

DARSIE distinguishes two kinds of divergence (Section 4.5):

- *SIMD (intra-warp) divergence*: lanes of one warp disagree — the warp
  stops participating in instruction skipping;
- *warp-level divergence*: a whole warp takes a different path than the
  TB majority — only that warp leaves the majority path.

:attr:`WarpState.has_simd_divergence` exposes the first condition to the
DARSIE frontend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.simt.grid import WARP_SIZE
from repro.simt.register_file import WarpRegisterFile


@dataclass
class SimtStackEntry:
    """One reconvergence-stack level.

    ``reconv_pc`` of ``None`` means the paths only rejoin at kernel exit.
    """

    pc: int
    active_mask: np.ndarray
    reconv_pc: Optional[int] = None

    def __post_init__(self) -> None:
        #: ``(mask, every lane set)`` memo behind :attr:`full`
        self._full: Optional[tuple] = None

    @property
    def full(self) -> bool:
        """True when every lane of :attr:`active_mask` is set.

        Masks are never mutated in place, only rebound, so the answer is
        memoized against the mask object itself: a rebinding misses the
        memo on its own, and holding the mask keeps its identity unique.
        """
        mask = self.active_mask
        memo = self._full
        if memo is None or memo[0] is not mask:
            memo = self._full = (mask, np.count_nonzero(mask) == mask.size)
        return memo[1]


@dataclass
class WarpState:
    """Architectural state of one warp."""

    warp_id: int                      # index within the TB
    tb_index: int                     # linear TB index within the grid
    registers: WarpRegisterFile = field(default_factory=WarpRegisterFile)
    stack: List[SimtStackEntry] = field(default_factory=list)
    exited: bool = False
    at_barrier: bool = False
    #: lanes that exist (TB size may not be a warp multiple)
    hw_mask: np.ndarray = field(default_factory=lambda: np.ones(WARP_SIZE, dtype=bool))
    #: memoized :attr:`has_simd_divergence` as ``(key, value)``;
    #: invalidated on stack change
    _simd_div: Optional[tuple] = field(default=None, repr=False, compare=False)

    @classmethod
    def create(cls, warp_id: int, tb_index: int, hw_mask: np.ndarray, start_pc: int = 0):
        warp = cls(
            warp_id=warp_id,
            tb_index=tb_index,
            registers=WarpRegisterFile(warp_size=len(hw_mask)),
            hw_mask=hw_mask.copy(),
        )
        warp.stack.append(SimtStackEntry(pc=start_pc, active_mask=hw_mask.copy()))
        return warp

    # -- control state -----------------------------------------------------

    @property
    def top(self) -> SimtStackEntry:
        return self.stack[-1]

    @property
    def pc(self) -> int:
        return self.top.pc

    @pc.setter
    def pc(self, value: int) -> None:
        self.top.pc = value

    @property
    def active_mask(self) -> np.ndarray:
        return self.top.active_mask

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.top.active_mask))

    @property
    def has_simd_divergence(self) -> bool:
        """True when some hardware lanes are inactive (Section 4.5).

        Active masks are never mutated in place — entries are pushed,
        popped, or have their mask rebound — so the answer is cached
        between stack changes instead of re-reducing the mask every
        cycle.  The cache key (stack depth, top-mask identity) makes a
        direct rebinding of ``top.active_mask`` miss on its own; the
        in-simulator mutation paths also invalidate explicitly.
        """
        top = self.stack[-1]
        key = (len(self.stack), id(top.active_mask))
        cached = self._simd_div
        if cached is not None and cached[0] == key:
            return cached[1]
        value = len(self.stack) > 1 or bool(np.any(self.hw_mask & ~top.active_mask))
        self._simd_div = (key, value)
        return value

    def invalidate_divergence(self) -> None:
        """Drop the memoized divergence answer after a stack mutation."""
        self._simd_div = None

    def __getstate__(self):
        """Pickle without the divergence memo: its key embeds ``id()`` of
        the top active mask, and a reconstituted object's new mask could
        coincidentally reuse a stale id — a recompute on first probe is
        cheap and always correct."""
        state = self.__dict__.copy()
        state["_simd_div"] = None
        return state

    def maybe_reconverge(self) -> bool:
        """Pop stack entries whose reconvergence PC has been reached."""
        popped = False
        while len(self.stack) > 1 and self.top.reconv_pc is not None and self.pc == self.top.reconv_pc:
            self.stack.pop()
            popped = True
        if popped:
            self._simd_div = None
        return popped

    def diverge(
        self,
        taken_mask: np.ndarray,
        not_taken_pc: int,
        taken_pc: int,
        reconv_pc: Optional[int],
    ) -> None:
        """Split the current top entry at a divergent branch.

        The current entry becomes the reconvergence continuation; the
        not-taken path is pushed first so the taken path executes first
        (matching GPGPU-Sim's convention — the order is arbitrary but
        must be deterministic).
        """
        self._simd_div = None
        current = self.top
        not_taken_mask = current.active_mask & ~taken_mask
        if reconv_pc is None:
            # Rejoin only at exit: turn the current entry into the taken
            # path and push the not-taken path to run afterwards.
            current.pc = taken_pc
            current.active_mask = taken_mask
            self.stack.append(
                SimtStackEntry(pc=not_taken_pc, active_mask=not_taken_mask, reconv_pc=None)
            )
            # Execute not-taken first (it is on top); either order is legal.
            return
        current.pc = reconv_pc
        self.stack.append(
            SimtStackEntry(pc=not_taken_pc, active_mask=not_taken_mask, reconv_pc=reconv_pc)
        )
        self.stack.append(
            SimtStackEntry(pc=taken_pc, active_mask=taken_mask, reconv_pc=reconv_pc)
        )

    def retire(self) -> None:
        self.exited = True
        self.at_barrier = False
