"""Figure 1 limit study: redundancy per GPU thread-grouping level.

"Instructions are classified as redundant at the grid-level when all the
grid's warp instructions operate on the same vector operands ...
Similarly ... for TBs if all warp instructions within a TB use the same
vector operands.  Warp-wide redundancy occurs if all scalar threads in a
warp operate on the same scalar value" (Section 1).

We classify by the *output* vector of each dynamic instruction (the
output pattern is what propagates and what DARSIE shares); Figure 3 uses
the same convention.  The five reported categories:

- ``grid`` — the instance's value summary is identical in every warp of
  the whole grid (grid-redundant instances are necessarily TB-redundant);
- ``tb`` — identical in every warp of the instance's TB;
- ``warp`` — the output is uniform across the lanes of the executing
  warp (a scalar-unit candidate), regardless of other warps;
- ``scalar`` — warp-uniform but *not* TB-redundant (what a conventional
  scalar unit captures that DARSIE's TB sharing does not, and vice versa);
- ``vector`` — neither TB-redundant nor warp-uniform: true vector work.

``grid``/``tb``/``warp`` overlap by construction (the paper's Figure 1
plots them as independent bars, not a stack); ``scalar``/``vector`` are
disjoint complements of ``tb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.simt.tracer import ExecutionTrace, RedundancyClass, TBInstance


@dataclass
class LevelBreakdown:
    """Fractions of dynamically executed instructions per level."""

    total: int
    grid: float
    tb: float
    warp: float
    vector: float
    scalar: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "grid": self.grid,
            "tb": self.tb,
            "warp": self.warp,
            "vector": self.vector,
            "scalar": self.scalar,
        }


def redundancy_levels(trace: ExecutionTrace) -> LevelBreakdown:
    """Classify one workload's trace at all grouping levels."""
    total = len(trace)
    if total == 0:
        raise ValueError("empty trace")

    tb_count = 0
    warp_count = 0
    scalar_count = 0
    vector_count = 0
    # The grid level: every TB's instance of one (pc, occurrence).
    grid: Dict[Tuple[int, int], List[TBInstance]] = {}
    for (_tb, pc, occ), instance in trace.instances.items():
        grid.setdefault((pc, occ), []).append(instance)
        warp_uniform = instance.uniform_warps
        warp_count += warp_uniform
        if instance.redundancy is RedundancyClass.NON_REDUNDANT:
            scalar_count += warp_uniform
            vector_count += instance.warps - warp_uniform
        else:
            tb_count += instance.warps

    # Grid-redundant: every TB ran the instance TB-redundantly, all with
    # one summary.
    grid_count = 0
    for group in grid.values():
        shared = group[0].summary
        if len(group) == trace.num_blocks and all(
            i.redundancy is not RedundancyClass.NON_REDUNDANT and i.summary == shared
            for i in group
        ):
            grid_count += sum(i.warps for i in group)

    return LevelBreakdown(
        total=total,
        grid=grid_count / total,
        tb=tb_count / total,
        warp=warp_count / total,
        vector=vector_count / total,
        scalar=scalar_count / total,
    )


def average_levels(breakdowns: List[LevelBreakdown]) -> LevelBreakdown:
    """Arithmetic mean across workloads (Figure 1 averages over Table 1)."""
    n = len(breakdowns)
    if n == 0:
        raise ValueError("no breakdowns to average")
    return LevelBreakdown(
        total=sum(b.total for b in breakdowns),
        grid=sum(b.grid for b in breakdowns) / n,
        tb=sum(b.tb for b in breakdowns) / n,
        warp=sum(b.warp for b in breakdowns) / n,
        vector=sum(b.vector for b in breakdowns) / n,
        scalar=sum(b.scalar for b in breakdowns) / n,
    )
