"""Why DARSIE-IGNORE-STORE equals DARSIE on the Table-1 apps.

IGNORE-STORE keeps skip-table load entries across stores (Figure 8);
DARSIE drops them and lets the warps that had not consumed one execute
the load privately (Section 4.4).  The two can differ only when a store
finds a live load entry.  On the Table-1 apps none ever does: each load
entry retires (every majority warp has skipped it) before its TB
stores, so the two variants are equal in every simulated statistic.
These tests read the golden store, which pins both variants on all 13
apps at tiny and at small, and simulate nothing.
"""

import json
import os
from collections import defaultdict

import pytest

from repro.core.compiler_pass import analyze_program
from repro.core.promotion import promote_markings
from repro.harness import golden
from repro.workloads import ALL_ABBRS, build_workload

STORE = os.path.join(os.path.dirname(__file__), "..", "timing", "data", "golden.json")


@pytest.fixture(scope="module")
def pairs():
    """(scale, app) -> {variant: stats} for the default-GPU runs of
    DARSIE and DARSIE-IGNORE-STORE."""
    out = defaultdict(dict)
    for key, stats in golden.load(STORE).items():
        run = json.loads(key)
        if "gpu" not in run and run["variant"] in ("DARSIE", "DARSIE-IGNORE-STORE"):
            out[run["scale"], run["abbr"]][run["variant"]] = stats
    return out


def test_both_variants_are_pinned_for_13_apps_at_two_scales(pairs):
    assert len(pairs) == 26
    assert all(len(runs) == 2 for runs in pairs.values())


def test_ignore_store_equals_darsie_in_every_field(pairs):
    differ = {
        f"{app}@{scale}": sorted(f for f in runs["DARSIE"]
                                 if runs["DARSIE"][f] != runs["DARSIE-IGNORE-STORE"][f])
        for (scale, app), runs in pairs.items()
        if runs["DARSIE"] != runs["DARSIE-IGNORE-STORE"]
    }
    assert differ == {}


def test_no_store_finds_a_live_load_entry(pairs):
    invalidating = sorted(
        f"{app}@{scale}" for (scale, app), runs in pairs.items()
        if runs["DARSIE"]["load_entries_invalidated"]
    )
    assert invalidating == []


def test_loads_are_skipped_at_all():
    """The equality is not for want of skippable loads: six apps have
    them at small (at tiny, CP's TBs are one warp, which skips nothing)."""
    with_loads = []
    for app in sorted(ALL_ABBRS):
        workload = build_workload(app, "small")
        analysis = analyze_program(workload.program)
        pcs = analysis.skippable_pcs(
            promote_markings(analysis.instruction_markings, workload.launch)
        )
        if any(workload.program.at(pc).is_load for pc in pcs):
            with_loads.append(app)
    assert with_loads == ["CONVTEX", "CP", "DCT8x8", "FWS", "LIB", "MM"]
