"""Table 1: the studied applications.

Maps each benchmark abbreviation to its kernel module and records the
paper's metadata (full name, source suite, TB dimensions).  This table
is their one record: a built :class:`Workload` carries only its
abbreviation, and reads its TB shape from its launch.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.simt.grid import Dim3
from repro.workloads.base import Workload, require_scale


@dataclass(frozen=True)
class Table1Entry:
    """One row of Table 1."""

    abbr: str
    name: str
    suite: str
    tb_dim: Tuple[int, int]
    module: str

    @property
    def dimensionality(self) -> int:
        return Dim3(*self.tb_dim).dimensionality


#: Table 1, in the paper's order (1D benchmarks then 2D benchmarks).
TABLE1: Dict[str, Table1Entry] = {
    e.abbr: e
    for e in [
        Table1Entry("BIN", "binomialOptions", "CUDA SDK", (256, 1), "bin"),
        Table1Entry("PT", "pathfinder", "Rodinia", (1024, 1), "pt"),
        Table1Entry("FW", "fastWalshTransform", "CUDA SDK", (256, 1), "fw"),
        Table1Entry("SR1", "SRADV1", "Rodinia", (512, 1), "sr1"),
        Table1Entry("LIB", "LIB", "GPGPU-sim dist.", (256, 1), "lib"),
        Table1Entry("IMNLM", "ImageDenoisingNLM", "CUDA SDK", (16, 16), "imnlm"),
        Table1Entry("BP", "Backprop", "Rodinia", (16, 16), "bp"),
        Table1Entry("DCT8x8", "DCT8x8", "CUDA SDK", (8, 8), "dct"),
        Table1Entry("FWS", "Floyd-Warshall", "Pannotia", (16, 16), "fws"),
        Table1Entry("HS", "HotSpot", "Rodinia", (16, 16), "hs"),
        Table1Entry("CP", "CP", "GPGPU-sim dist.", (16, 8), "cp"),
        Table1Entry("CONVTEX", "convolutionTexture", "CUDA SDK", (16, 16), "convtex"),
        Table1Entry("MM", "MatrixMul", "CUDA SDK", (32, 32), "mm"),
    ]
}

ONE_D_ABBRS: Tuple[str, ...] = tuple(a for a, e in TABLE1.items() if e.dimensionality == 1)
TWO_D_ABBRS: Tuple[str, ...] = tuple(a for a, e in TABLE1.items() if e.dimensionality == 2)
ALL_ABBRS: Tuple[str, ...] = ONE_D_ABBRS + TWO_D_ABBRS

#: The divergent suite: small kernels with real data-/lane-dependent
#: if-then-else diamonds, built to exercise control-flow melding
#: (``python -m repro meld-verify`` / ``compare-techniques``).  The 13
#: Table 1 kernels only branch on loop back-edges, so the melder is a
#: no-op on them; these are kept in their own table so ``TABLE1`` /
#: ``ALL_ABBRS`` (and every golden pinned to them) are untouched.
DIVERGENT_TABLE: Dict[str, Table1Entry] = {
    e.abbr: e
    for e in [
        Table1Entry("DIVEO", "DivergeEvenOdd", "divergent", (64, 1), "diveo"),
        Table1Entry("DIVABS", "DivergeAbsRescale", "divergent", (128, 1), "divabs"),
        Table1Entry("DIVSQ", "DivergeThresholdSqrt", "divergent", (64, 1), "divsq"),
    ]
}

DIVERGENT_ABBRS: Tuple[str, ...] = tuple(DIVERGENT_TABLE)

#: Everything buildable by :func:`build_workload`.
EXTENDED_ABBRS: Tuple[str, ...] = ALL_ABBRS + DIVERGENT_ABBRS


def build_workload(abbr: str, scale: str = "small") -> Workload:
    """Instantiate one Table 1 (or divergent-suite) workload."""
    require_scale(scale)
    entry = TABLE1.get(abbr) or DIVERGENT_TABLE.get(abbr)
    if entry is None:
        known = sorted(TABLE1) + sorted(DIVERGENT_TABLE)
        raise KeyError(f"unknown workload {abbr!r}; known: {known}")
    module = importlib.import_module(f"repro.workloads.kernels.{entry.module}")
    workload = module.build(scale)
    assert workload.abbr == abbr, f"{entry.module}.build returned {workload.abbr}"
    return workload


def table1_rows() -> List[Tuple[str, str, str, str, int]]:
    """Rows for rendering Table 1: (abbr, name, suite, tb_dim, dims)."""
    return [
        (e.abbr, e.name, e.suite, f"({e.tb_dim[0]},{e.tb_dim[1]})", e.dimensionality)
        for e in TABLE1.values()
    ]
