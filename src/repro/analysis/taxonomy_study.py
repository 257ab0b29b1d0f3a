"""Figure 2: taxonomy breakdown of TB-redundant instructions.

For each benchmark, the fraction of dynamically executed instructions
whose TB-wide instance is uniform / affine / unstructured redundant,
with everything else (including instructions in diverged control flow)
non-redundant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.simt.tracer import ExecutionTrace, RedundancyClass


@dataclass
class TaxonomyBreakdown:
    """Per-class fractions of one workload's executed instructions."""

    total: int
    uniform: float
    affine: float
    unstructured: float
    non_redundant: float

    @property
    def tb_redundant(self) -> float:
        return self.uniform + self.affine + self.unstructured

    def as_dict(self) -> Dict[str, float]:
        return {
            "uniform": self.uniform,
            "affine": self.affine,
            "unstructured": self.unstructured,
            "non_redundant": self.non_redundant,
        }


def taxonomy_breakdown(trace: ExecutionTrace) -> TaxonomyBreakdown:
    """Classify a workload trace under the Section 2 taxonomy."""
    total = len(trace)
    if total == 0:
        raise ValueError("empty trace")
    counts = {cls: 0 for cls in RedundancyClass}
    for instance in trace.instances.values():
        counts[instance.redundancy] += instance.warps
    return TaxonomyBreakdown(
        total=total,
        uniform=counts[RedundancyClass.UNIFORM] / total,
        affine=counts[RedundancyClass.AFFINE] / total,
        unstructured=counts[RedundancyClass.UNSTRUCTURED] / total,
        non_redundant=counts[RedundancyClass.NON_REDUNDANT] / total,
    )
