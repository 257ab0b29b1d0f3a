"""Warp-scheduler sweep (Section 5 methodology).

"We swept different warp schedulers and observed that these regular
applications are insensitive to scheduler choice, with GTO being the
best performing option."  Reproduced here: BASE and DARSIE cycle counts
under GTO vs loose-round-robin issue scheduling stay within a few
percent on representative regular workloads.
"""

from conftest import SCALE, run_once

from repro.harness import parallel
from repro.harness.reporting import format_table
from repro.timing import small_config

APPS = ("LIB", "CONVTEX", "HS", "FWS")


def sweep():
    """Cycles per app, policy and variant.  ``small_config(1)`` under
    GTO is the default GPU, so those runs are Figure 8's own cache
    entries."""
    rows = {abbr: {} for abbr in APPS}
    for policy in ("gto", "lrr"):
        results, _ = parallel.sweep(
            APPS, ("BASE", "DARSIE"), scale=SCALE,
            gpu_config=small_config(1, scheduler_policy=policy),
        )
        for abbr in APPS:
            rows[abbr][policy] = {
                "base": results[abbr, "BASE"].cycles,
                "darsie": results[abbr, "DARSIE"].cycles,
            }
    return rows


def test_scheduler_insensitivity(benchmark, archive):
    rows = run_once(benchmark, sweep)
    table = [
        [
            abbr,
            r["gto"]["base"], r["lrr"]["base"],
            r["gto"]["darsie"], r["lrr"]["darsie"],
        ]
        for abbr, r in rows.items()
    ]
    archive(
        "scheduler_sweep",
        format_table(
            ["App", "BASE/GTO", "BASE/LRR", "DARSIE/GTO", "DARSIE/LRR"],
            table,
            title="Warp-scheduler sweep (Section 5: regular apps are insensitive)",
        ),
    )
    for abbr, r in rows.items():
        for config in ("base", "darsie"):
            gto, lrr = r["gto"][config], r["lrr"][config]
            assert abs(gto - lrr) / gto < 0.08, (
                f"{abbr}/{config}: GTO {gto} vs LRR {lrr} — "
                "regular workloads should be scheduler-insensitive"
            )
