"""Memory spaces of the machine model.

All spaces are byte-addressed with 4-byte words, matching the 32-bit lane
width of the register file.  Values are held in float64 storage: 32-bit
integers are represented exactly, and this keeps load/store semantics
uniform across integer and floating-point kernels.

``GlobalMemory`` offers a tiny allocator so workloads can place arrays and
pass base addresses as kernel parameters — the same calling convention the
paper's benchmarks use.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

WORD_BYTES = 4


class MemoryError_(Exception):
    """Out-of-range or misaligned access."""


def _check_addr(addr: np.ndarray, limit_bytes: int, space: str) -> np.ndarray:
    """Word indices of the int64 byte addresses ``addr``, after a range
    and an alignment check.

    One OR-reduction screens both: the OR of all lanes is negative if any
    lane is, no smaller than the largest lane, and has a low bit set if
    any lane does.  Only a failed screen pays for the exact checks, which
    an OR larger than every lane can fail without cause.
    """
    if addr.size:
        screen = np.bitwise_or.reduce(addr)
        if screen < 0 or screen >= limit_bytes or screen & (WORD_BYTES - 1):
            lo, hi = addr.min(), addr.max()
            if lo < 0 or hi >= limit_bytes:
                raise MemoryError_(
                    f"{space} access out of range: [{lo}, {hi}] outside [0, {limit_bytes})"
                )
            if (addr & (WORD_BYTES - 1)).any():
                raise MemoryError_(f"misaligned {space} access")
    return addr >> 2


class _WordSpace:
    """Common word-array storage for global and shared memory."""

    def __init__(self, size_words: int, name: str):
        self.name = name
        self.words = np.zeros(size_words, dtype=np.float64)

    @property
    def size_bytes(self) -> int:
        return self.words.size * WORD_BYTES

    def load(self, byte_addr: np.ndarray, as_float: bool) -> np.ndarray:
        """Gather one word per element of ``byte_addr``."""
        idx = _check_addr(np.asarray(byte_addr, dtype=np.int64), self.size_bytes, self.name)
        values = self.words[idx]
        return values if as_float else values.astype(np.int64)

    def store(self, byte_addr: np.ndarray, values: np.ndarray) -> None:
        """Scatter ``values`` (later lanes win on address collisions)."""
        idx = _check_addr(np.asarray(byte_addr, dtype=np.int64), self.size_bytes, self.name)
        self.words[idx] = np.asarray(values, dtype=np.float64)

    def read_array(self, byte_addr: int, count: int, dtype=np.float64) -> np.ndarray:
        """Bulk host-side read of ``count`` words starting at ``byte_addr``."""
        start = byte_addr >> 2
        out = self.words[start : start + count]
        if np.issubdtype(np.dtype(dtype), np.integer):
            return out.astype(np.int64)
        return out.copy()

    def write_array(self, byte_addr: int, values) -> None:
        """Bulk host-side write starting at ``byte_addr``."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        start = byte_addr >> 2
        if start < 0 or start + arr.size > self.words.size:
            raise MemoryError_(f"host write out of range in {self.name}")
        self.words[start : start + arr.size] = arr


class GlobalMemory(_WordSpace):
    """Device global memory with a bump allocator for workload setup."""

    def __init__(self, size_words: int = 1 << 20):
        super().__init__(size_words, "global")
        self._brk = 0
        self._allocations: Dict[str, int] = {}

    def alloc(self, words: int, name: Optional[str] = None, align_words: int = 32) -> int:
        """Reserve ``words`` words; returns the base *byte* address.

        Allocations are aligned to ``align_words`` words (128 bytes by
        default — one memory transaction line) so coalescing behaviour is
        realistic.
        """
        self._brk = -(-self._brk // align_words) * align_words
        base = self._brk
        if base + words > self.words.size:
            raise MemoryError_("global memory exhausted")
        self._brk = base + words
        byte_base = base * WORD_BYTES
        if name is not None:
            self._allocations[name] = byte_base
        return byte_base

    def alloc_array(self, values, name: Optional[str] = None) -> int:
        """Allocate and initialise from a numpy array; returns byte base."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        base = self.alloc(arr.size, name)
        self.write_array(base, arr)
        return base

    def base_of(self, name: str) -> int:
        return self._allocations[name]


class SharedMemory(_WordSpace):
    """Per-threadblock scratchpad."""

    def __init__(self, size_words: int = 96 * 1024 // 4):
        # Table 2: 96KB shared memory per SM; one TB gets at most all of it.
        super().__init__(size_words, "shared")


class KernelParams:
    """Launch parameter values, uniform across the grid.

    The paper marks "global kernel input parameters" definitely redundant
    (Section 4.2); this class is the runtime source of those values.
    """

    def __init__(self, values: Optional[Dict[str, Union[int, float]]] = None):
        self._values: Dict[str, Union[int, float]] = dict(values or {})

    def __getitem__(self, name: str) -> Union[int, float]:
        try:
            return self._values[name]
        except KeyError:
            raise KeyError(f"kernel parameter {name!r} was not provided") from None

    def __setitem__(self, name: str, value: Union[int, float]) -> None:
        self._values[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def names(self):
        return tuple(self._values)

    def validate_against(self, declared) -> None:
        """Raise if any declared kernel parameter is missing a value."""
        missing = [p for p in declared if p not in self._values]
        if missing:
            raise KeyError(f"missing kernel parameter values: {missing}")
