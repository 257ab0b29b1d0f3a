"""Per-warp architectural register state.

Each warp owns a private 32-lane instance of every named register
(Section 3: "each warp has a set of private vector registers that store
per-thread scalar values in each vector lane").  Integer values are held
as int64 lanes and floats as float64; the producing instruction's type
suffix decides which, as in PTXPlus.

Predicates live in a separate per-warp space of boolean lane vectors.

Stored vectors are never mutated in place: every write binds a new
array.  That lets the executor store the vector an instruction computed
as is, and hand the same object out as the instruction's result.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.simt.grid import WARP_SIZE


class WarpRegisterFile:
    """Vector + predicate register storage for a single warp."""

    def __init__(self, warp_size: int = WARP_SIZE):
        self.warp_size = warp_size
        self._regs: Dict[str, np.ndarray] = {}
        self._preds: Dict[str, np.ndarray] = {}

    # -- vector registers --------------------------------------------------

    def read(self, name: str) -> np.ndarray:
        """Current value of register ``name`` (zeros if never written)."""
        value = self._regs.get(name)
        if value is None:
            value = np.zeros(self.warp_size, dtype=np.int64)
            self._regs[name] = value
        return value

    def write(self, name: str, value: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        """Write ``value`` into ``name`` under an optional lane ``mask``.

        A masked write merges new lanes over the previous contents,
        promoting storage to float64 if either side is float.
        """
        value = np.asarray(value)
        if value.shape != (self.warp_size,):
            value = np.broadcast_to(value, (self.warp_size,)).copy()
        if mask is None or bool(np.all(mask)):
            self._regs[name] = value.copy()
        else:
            self._merge(name, value, mask)

    def commit(self, name: str, value: np.ndarray, mask: np.ndarray, full: bool) -> None:
        """The executor's write: ``value`` is a freshly computed warp-wide
        vector and ``full`` says whether ``mask`` holds every lane.  A full
        write stores ``value`` itself, without the defensive copy."""
        if full:
            self._regs[name] = value
        else:
            self._merge(name, value, mask)

    def _merge(self, name: str, value: np.ndarray, mask: np.ndarray) -> None:
        old = self.read(name)
        if old.dtype != value.dtype:
            merged = np.where(mask, value.astype(np.float64), old.astype(np.float64))
            if not value.dtype.kind == "f" and not old.dtype.kind == "f":
                merged = merged.astype(np.int64)
        else:
            merged = np.where(mask, value, old)
        self._regs[name] = merged

    def names(self):
        return tuple(self._regs)

    # -- predicate registers -------------------------------------------------

    def read_pred(self, name: str) -> np.ndarray:
        value = self._preds.get(name)
        if value is None:
            value = np.zeros(self.warp_size, dtype=bool)
            self._preds[name] = value
        return value

    def write_pred(self, name: str, value: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        value = np.asarray(value, dtype=bool)
        if mask is None or bool(np.all(mask)):
            self._preds[name] = value.copy()
        else:
            self.commit_pred(name, value, mask, False)

    def commit_pred(self, name: str, value: np.ndarray, mask: np.ndarray, full: bool) -> None:
        """Predicate counterpart of :meth:`commit`."""
        if full:
            self._preds[name] = value
        else:
            self._preds[name] = np.where(mask, value, self.read_pred(name))

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Copy of all vector registers (used by tests and the tracer)."""
        return {name: value.copy() for name, value in self._regs.items()}
