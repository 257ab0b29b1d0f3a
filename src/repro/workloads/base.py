"""Workload framework: a benchmark kernel plus its data and oracle.

Each workload module exposes ``build(scale)`` returning a
:class:`Workload`: the assembled program, the launch configuration from
Table 1, a factory that sets up fresh device memory (simulations mutate
memory, so every run gets its own image), and a numpy reference check.
The TB shape and dimensionality are read from the launch; the paper's
name and suite live in Table 1 (:mod:`repro.workloads.registry`) only.

Scales:

- ``tiny``  — a few hundred dynamic warp instructions; unit tests;
- ``small`` — thousands; the default for benchmark reproduction;
- ``medium`` — tens of thousands; closer-to-paper behaviour when you
  have the time budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.isa.program import Program
from repro.simt.grid import LaunchConfig
from repro.simt.memory import GlobalMemory

SCALES = ("tiny", "small", "medium")

#: (memory, params) for one fresh run.
MemorySetup = Tuple[GlobalMemory, Dict[str, float]]


@dataclass
class Workload:
    """One Table 1 benchmark instance."""

    abbr: str
    program: Program
    launch: LaunchConfig
    #: builds a fresh memory image + params for one run
    make_memory: Callable[[], MemorySetup]
    #: verifies device memory against the numpy oracle after a run
    check: Callable[[GlobalMemory, Dict[str, float]], bool]
    scale: str = "small"
    description: str = ""

    @property
    def tb_dim(self) -> Tuple[int, int]:
        """The TB's (x, y) extent, as Table 1 lists it."""
        block = self.launch.block_dim
        return (block.x, block.y)

    @property
    def dimensionality(self) -> int:
        """How many TB axes exceed one thread (Section 4.2's launch check)."""
        return self.launch.block_dim.dimensionality

    def fresh(self) -> MemorySetup:
        return self.make_memory()

    def verify(self, memory: GlobalMemory, params: Dict[str, float]) -> bool:
        return self.check(memory, params)


def require_scale(scale: str) -> str:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    return scale


def close(memory: GlobalMemory, base: int, expected: np.ndarray, rtol=1e-6, atol=1e-6) -> bool:
    """Compare a device array against a float oracle."""
    got = memory.read_array(base, expected.size)
    return bool(np.allclose(got, np.asarray(expected, dtype=np.float64).ravel(), rtol=rtol, atol=atol))


def exact(memory: GlobalMemory, base: int, expected: np.ndarray) -> bool:
    """Compare a device array against an integer oracle."""
    got = memory.read_array(base, expected.size, dtype=np.int64)
    return bool(np.array_equal(got, np.asarray(expected, dtype=np.int64).ravel()))
