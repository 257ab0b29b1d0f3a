"""Table 1 workloads, rewritten for the reproduction substrate.

Thirteen benchmarks — five with 1D TBs, eight with 2D TBs — matching the
paper's application set (Table 1): same TB dimensions, same structural
access patterns (the source of the redundancy DARSIE exploits), verified
against numpy oracles.  Problem sizes are scaled down for the Python
substrate; DESIGN.md documents the substitution.
"""

from repro.workloads.base import SCALES, Workload
from repro.workloads.registry import (
    ALL_ABBRS,
    DIVERGENT_ABBRS,
    DIVERGENT_TABLE,
    EXTENDED_ABBRS,
    ONE_D_ABBRS,
    TABLE1,
    TWO_D_ABBRS,
    build_workload,
    table1_rows,
)

__all__ = [
    "SCALES",
    "Workload",
    "ALL_ABBRS",
    "DIVERGENT_ABBRS",
    "DIVERGENT_TABLE",
    "EXTENDED_ABBRS",
    "ONE_D_ABBRS",
    "TWO_D_ABBRS",
    "TABLE1",
    "build_workload",
    "table1_rows",
]
