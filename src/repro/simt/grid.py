"""Launch geometry: grids, threadblocks, and the warp/thread-ID layout.

The layout rules here are the root cause of the redundancy DARSIE
exploits (Section 2): scalar threads are linearised inside a TB with the
x index varying fastest, then chopped into consecutive groups of
``warp_size``.  When ``blockDim.x`` divides the warp size (power of two,
<= warp size), every warp in the TB sees the *same* ``tid.x`` vector —
the seed of affine and unstructured TB-wide redundancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Pascal warp width (Table 2: 32 SIMD width).
WARP_SIZE = 32


@dataclass(frozen=True)
class Dim3:
    """A CUDA-style three-component extent (x, y, z)."""

    x: int
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    @property
    def dimensionality(self) -> int:
        """1, 2 or 3 — how many axes exceed one element."""
        return max(1, sum(1 for v in (self.x, self.y, self.z) if v > 1))

    def __iter__(self) -> Iterator[int]:
        return iter((self.x, self.y, self.z))

    def __str__(self) -> str:
        return f"({self.x},{self.y},{self.z})"


def dim3(value) -> Dim3:
    """Coerce an int, tuple or Dim3 into a :class:`Dim3`."""
    if isinstance(value, Dim3):
        return value
    if isinstance(value, int):
        return Dim3(value)
    return Dim3(*value)


@dataclass(frozen=True)
class LaunchConfig:
    """Grid and block dimensions of one kernel launch."""

    grid_dim: Dim3
    block_dim: Dim3
    warp_size: int = WARP_SIZE

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid_dim", dim3(self.grid_dim))
        object.__setattr__(self, "block_dim", dim3(self.block_dim))
        if self.warp_size < 1:
            raise ValueError("warp_size must be positive")

    @property
    def threads_per_block(self) -> int:
        return self.block_dim.count

    @property
    def warps_per_block(self) -> int:
        return -(-self.threads_per_block // self.warp_size)

    @property
    def num_blocks(self) -> int:
        return self.grid_dim.count

    @property
    def total_warps(self) -> int:
        return self.num_blocks * self.warps_per_block

    def block_index(self, linear: int) -> Dim3:
        """The (x, y, z) block index of linear block ``linear``."""
        gx, gy, _gz = self.grid_dim
        x = linear % gx
        y = (linear // gx) % gy
        z = linear // (gx * gy)
        return _raw_dim3(x, y, z)


def _raw_dim3(x: int, y: int, z: int) -> Dim3:
    """Dim3 carrying zero-based indices (bypasses the >=1 validation)."""
    d = object.__new__(Dim3)
    object.__setattr__(d, "x", x)
    object.__setattr__(d, "y", y)
    object.__setattr__(d, "z", z)
    return d


class WarpLayout:
    """Per-warp thread-index vectors for one launch configuration.

    For warp ``w`` of a TB, lane ``l`` holds the scalar thread with linear
    id ``w * warp_size + l``; linear ids map to (x, y, z) with x fastest.
    Lanes past the TB's thread count are inactive (their index values are
    zero and their bit is clear in :meth:`active_mask`).
    """

    def __init__(self, config: LaunchConfig):
        self.config = config
        bx, by, bz = config.block_dim
        n = config.threads_per_block
        w = config.warp_size
        padded = config.warps_per_block * w
        linear = np.arange(padded, dtype=np.int64)
        valid = linear < n
        clamped = np.where(valid, linear, 0)
        self._tid_x = (clamped % bx).reshape(-1, w)
        self._tid_y = ((clamped // bx) % by).reshape(-1, w)
        self._tid_z = (clamped // (bx * by)).reshape(-1, w)
        self._valid = valid.reshape(-1, w)

    def tid(self, warp: int, axis: str) -> np.ndarray:
        """The 32-lane ``tid.<axis>`` vector of warp ``warp``."""
        table = {"x": self._tid_x, "y": self._tid_y, "z": self._tid_z}
        return table[axis][warp].copy()

    def active_mask(self, warp: int) -> np.ndarray:
        """Boolean lane mask of threads that exist in this warp."""
        return self._valid[warp].copy()

    @property
    def warps_per_block(self) -> int:
        return self.config.warps_per_block


def tidx_is_tb_redundant(block_dim: Dim3, warp_size: int = WARP_SIZE) -> bool:
    """The launch-time promotion criterion of Section 4.2.

    ``tid.x`` repeats identically in every warp of the TB iff the kernel
    has multi-dimensional TBs and the x extent is a power of two no wider
    than the warp (so warps never straddle an x-row boundary unevenly).
    """
    x = block_dim.x
    multi_dimensional = block_dim.y > 1 or block_dim.z > 1
    power_of_two = x > 0 and (x & (x - 1)) == 0
    return multi_dimensional and power_of_two and x <= warp_size


def tidy_is_tb_redundant(block_dim: Dim3, warp_size: int = WARP_SIZE) -> bool:
    """3D extension of the promotion criterion (Section 2's observation).

    ``tid.y`` repeats identically in every warp iff the TB is 3D and each
    warp covers whole (x, y) planes identically: ``x*y`` must be a power
    of two no wider than the warp.  This implies the ``tid.x`` criterion.
    """
    xy = block_dim.x * block_dim.y
    power_of_two = xy > 0 and (xy & (xy - 1)) == 0
    return block_dim.z > 1 and power_of_two and xy <= warp_size
