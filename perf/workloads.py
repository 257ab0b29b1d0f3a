"""The benchmark's three workloads and the helpers both processes share.

The parent (``run.py``) only needs the plain-data table; the child
(``child.py``) builds the specs and drives the harness, so every
``repro`` import here is local to the function that needs it — the
parent never imports the package it measures.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

#: The Figure-8 variants, in the registry's legend order (the per-variant
#: per-layer metrics are named after them; a test pins this against
#: ``REGISTRY.by_tag("fig8")``).
FIG8_VARIANTS = ("BASE", "UV", "DAC-IDEAL", "DARSIE", "DARSIE-IGNORE-STORE")


@dataclass(frozen=True)
class BenchWorkload:
    """One workload: what its phases run and how often the set-up and
    warm phases repeat (the cold sweeps fill ``--seconds``)."""

    name: str
    why: str
    scale: str
    #: set-up children per run (``setup_s`` is their median)
    setup_reps: int
    #: warm children per run (``warm_s`` is their median)
    warm_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        BenchWorkload(
            name="fig8",
            why="Headline paper regeneration: the 65-spec Figure-8 matrix cold, then "
                "Figures 8-11 from its cache; DARSIE/UV/DAC frontends and the DAC "
                "profile do much of the work",
            scale="small",
            setup_reps=3,
            warm_reps=5,
        ),
        BenchWorkload(
            name="base-medium",
            why="Long BASE kernels at medium scale: stages and executor do the work; "
                "bypasses frontends, the DAC profile and DARSIE event-skip, so changes "
                "there leave it unchanged",
            scale="medium",
            setup_reps=5,
            warm_reps=5,
        ),
        BenchWorkload(
            name="limit-study",
            why="Figures 1+2 functional sweep: executor, tracer and analysis with no "
                "timing model; shares the executor with the other two workloads",
            scale="small",
            setup_reps=5,
            warm_reps=5,
        ),
    )
}


def permute(items: Sequence[Any], seed: int) -> List[Any]:
    """``items`` in a seed-determined order; seed 0 keeps the given order."""
    out = list(items)
    if seed:
        random.Random(seed).shuffle(out)
    return out


def cold_specs(name: str, scale: str) -> list:
    """The specs of one workload's cold sweep, in the drivers' order."""
    from repro.harness.parallel import FUNCTIONAL, RunSpec
    from repro.workloads import ALL_ABBRS

    variants = {
        "fig8": FIG8_VARIANTS,
        "base-medium": ("BASE",),
        "limit-study": (FUNCTIONAL,),
    }[name]
    return [RunSpec(abbr=a, config_name=v, scale=scale) for a in ALL_ABBRS for v in variants]


def run_warm(name: str, scale: str) -> list:
    """Regenerate one workload's outputs through the public drivers;
    returns the :class:`SweepStats` of every sweep they made."""
    from repro.harness import experiments, parallel
    from repro.workloads import ALL_ABBRS

    if name == "fig8":
        results = [
            experiments.figure8(scale),
            experiments.figure9(scale),
            experiments.figure10(scale),
            experiments.figure11(scale),
        ]
        return [r.sweep_stats for r in results]
    if name == "base-medium":
        return [parallel.sweep(ALL_ABBRS, ("BASE",), scale=scale)[1]]
    return [experiments.figure1(scale).sweep_stats, experiments.figure2(scale).sweep_stats]


def digest_row(outcome) -> Tuple[str, int, int, int, int, str]:
    """``(label, cycles, executed, skipped, eliminated, extra)`` of one
    landed spec.  Functional results have no cycles; their executed
    count is the trace length and ``extra`` pins the analysis output."""
    result = outcome.result
    sim = getattr(result, "sim", None)
    if sim is not None:
        s = sim.stats
        return (
            outcome.spec.label, sim.cycles, s.instructions_executed,
            s.instructions_skipped, s.executions_eliminated, "",
        )
    extra = json.dumps(
        {"levels": result.levels.as_dict(), "taxonomy": result.taxonomy.as_dict()},
        sort_keys=True,
    )
    return (outcome.spec.label, 0, result.levels.total, 0, 0, extra)


def sim_digest(rows) -> str:
    """Order-independent sha256 over the digest rows of a sweep."""
    canonical = json.dumps(sorted(tuple(r) for r in rows))
    return hashlib.sha256(canonical.encode()).hexdigest()
