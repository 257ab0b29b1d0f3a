"""The golden store: every pinned simulated number, one file, one diff.

``tests/timing/data/golden.json`` pins every :class:`SimStats` field
(:meth:`SimStats.to_dict`) of each run in :func:`matrix`, and the order
of its energy events (:data:`ORDER_FIELD`):

- every registered variant × the 13 Table-1 apps at tiny;
- BASE, DARSIE and DUAL-ISSUE under loose round-robin issue at tiny;
- the Figure-8 variants × the 13 apps at small.

An entry names its run by the canonical :class:`RunConfig` dict, the
identity the result cache hashes; in memory the store is a
``{canonical JSON of the run: stats}`` dict.  A speed-up leaves every
entry alone, the event order included: an event's first increment fixes
its place in ``SimStats.energy_events``, which is the order the energy
model sums in, so moving one changes ``energy_pj`` in its last bits
while every count holds.  A deliberate model change rewrites the store with
``python -m repro golden``, which prints each spec that moved; the
golden tests print the same :func:`diff` when they fail.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Mapping, Optional, Sequence

from repro.config import ConfigError, DEFAULT_GPU, RunConfig
from repro.harness import parallel
from repro.timing import SimStats, small_config
from repro.variants import REGISTRY
from repro.workloads import ALL_ABBRS

#: The store, relative to the repository root.
STORE_PATH = os.path.join("tests", "timing", "data", "golden.json")

STATS_FIELDS = tuple(f.name for f in dataclasses.fields(SimStats))

#: The entry field that lists the energy events in first-increment order.
ORDER_FIELD = "energy_event_order"

NOTE = ("Every SimStats field of each pinned run, and its energy events in "
        "first-increment order. A speed-up must leave it unchanged; a deliberate "
        "model change rewrites it with `python -m repro golden`, which prints "
        "the specs that moved.")


class StoreError(ValueError):
    """A store entry the loader rejects; the message names the entry."""


def matrix() -> List[RunConfig]:
    """Every pinned run, read from the registry at call time."""
    groups = (
        ("tiny", DEFAULT_GPU, REGISTRY.names()),
        ("tiny", small_config(num_sms=1, scheduler_policy="lrr"),
         ("BASE", "DARSIE", "DUAL-ISSUE")),
        ("small", DEFAULT_GPU, REGISTRY.by_tag("fig8")),
    )
    return [
        RunConfig(abbr=abbr, variant=variant, scale=scale, gpu=gpu)
        for scale, gpu, variants in groups
        for abbr in ALL_ABBRS
        for variant in variants
    ]


def read(path: str) -> Dict[str, dict]:
    """The store at ``path`` as written, unchecked."""
    with open(path) as fh:
        entries = json.load(fh)["entries"]
    return {json.dumps(e["run"], sort_keys=True, separators=(",", ":")): e["stats"]
            for e in entries}


def _problem(key: str, stats: Mapping) -> Optional[str]:
    run = json.loads(key)
    try:
        config = RunConfig.from_dict(run)
    except ConfigError as exc:
        return str(exc)
    if config.to_dict() != run:
        return f"run is not canonical; canonical form {config.canonical_json()}"
    if config.abbr not in ALL_ABBRS:
        return f"unknown app {config.abbr!r}"
    if config.variant not in REGISTRY:
        return f"unknown variant {config.variant!r}"
    fields = STATS_FIELDS + (ORDER_FIELD,)
    missing = [f for f in fields if f not in stats]
    extra = sorted(set(stats) - set(fields))
    if missing or extra:
        return f"SimStats fields missing {missing}, unknown {extra}"
    if sorted(stats[ORDER_FIELD]) != sorted(stats["energy_events"]):
        return f"{ORDER_FIELD} does not list exactly the energy events"
    return None


def load(path: Optional[str] = None) -> Dict[str, dict]:
    """The store, each entry checked: a canonical run of a Table-1 app
    under a registered variant, with exactly the SimStats fields and an
    event order that lists exactly its energy events."""
    entries = read(path or STORE_PATH)
    for key, stats in entries.items():
        problem = _problem(key, stats)
        if problem:
            raise StoreError(f"golden entry {key}: {problem}")
    return entries


def write(entries: Mapping[str, dict], path: str) -> None:
    payload = {
        "note": NOTE,
        "entries": [{"run": json.loads(k), "stats": entries[k]} for k in sorted(entries)],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def entry(stats: SimStats) -> dict:
    """What the store pins of one run: every field, and the energy
    events in first-increment order."""
    pinned = stats.to_dict()
    pinned[ORDER_FIELD] = [event.value for event in stats.energy_events]
    return pinned


def compute(runs: Sequence[RunConfig], use_cache: Optional[bool] = None) -> Dict[str, dict]:
    """Simulate ``runs`` through the sweep layer (``--jobs`` applies)."""
    outcomes, _ = parallel.run_specs(runs, use_cache=use_cache, strict=True)
    return {run.canonical_json(): entry(o.result.sim.stats)
            for run, o in zip(runs, outcomes)}


def _label(key: str) -> str:
    """The run's :attr:`RunConfig.label`; the key itself for an entry
    the current schema no longer reads (a removed one)."""
    try:
        return RunConfig.from_dict(json.loads(key)).label
    except ConfigError:
        return key


def diff(old: Mapping[str, dict], new: Mapping[str, dict]) -> List[str]:
    """One line per spec that moved, was added or was removed."""
    lines = []
    for key in sorted(set(old) | set(new)):
        label = _label(key)
        if key not in old:
            lines.append(f"added   {label}: {new[key].get('cycles')} cycles")
        elif key not in new:
            lines.append(f"removed {label}")
        elif old[key] != new[key]:
            was, now = old[key].get("cycles", 0), new[key].get("cycles", 0)
            fields = sorted(f for f in set(old[key]) | set(new[key])
                            if old[key].get(f) != new[key].get(f))
            lines.append(f"moved   {label}: cycles {was} -> {now} "
                         f"({now - was:+d}); fields {', '.join(fields)}")
    return lines


def compare(runs: Sequence[RunConfig], path: Optional[str] = None,
            use_cache: Optional[bool] = None) -> List[str]:
    """:func:`diff` of the store's entries for ``runs`` against a fresh
    computation of them; empty when every pinned number holds."""
    keys = {run.canonical_json() for run in runs}
    want = {k: v for k, v in load(path).items() if k in keys}
    return diff(want, compute(runs, use_cache=use_cache))


def regenerate() -> List[str]:
    """Recompute the matrix, rewrite the store, and return the diff
    against what it held, then a summary line."""
    old = read(STORE_PATH) if os.path.exists(STORE_PATH) else {}
    new = compute(matrix())
    write(new, STORE_PATH)
    moved = sum(1 for k in new if k in old and old[k] != new[k])
    return diff(old, new) + [
        f"golden: {moved} of {len(new)} specs moved, {len(set(new) - set(old))} added, "
        f"{len(set(old) - set(new))} removed; wrote {STORE_PATH}"
    ]
