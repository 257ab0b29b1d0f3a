#!/usr/bin/env python
"""Design-space exploration of the DARSIE hardware parameters.

Sweeps the knobs the paper fixes by construction and shows why its
choices are sensible on this substrate:

- PC-coalescer port count (paper: 2 ports suffice, Section 4.3.4);
- rename registers per TB (paper: 32, Section 4.3.1 — starving the
  freelist forces TB synchronization);
- versioning vs synchronize-on-every-redundant-write (Section 4.1);
- store handling: conservative load invalidation vs IGNORE-STORE
  (Section 4.4 / Figure 8).

Run with::

    python examples/design_space.py [ABBR]
"""

import sys

from repro import DarsieConfig
from repro.harness.runner import WorkloadRunner
from repro.workloads import build_workload


def sweep(runner: WorkloadRunner, title: str, variants) -> None:
    base = runner.run("BASE").cycles
    print(f"\n--- {title} ---")
    for label, cfg in variants:
        res = runner.run("DARSIE", cfg)
        skipped = res.stats.instructions_skipped
        print(f"  {label:18s} speedup={base / res.cycles:5.2f}x "
              f"skipped={skipped:6d} sync_waits={res.stats.sync_wait_cycles:7d} "
              f"freelist_syncs={res.stats.freelist_syncs}")


def main() -> None:
    abbr = sys.argv[1] if len(sys.argv) > 1 else "MM"
    workload = build_workload(abbr, "small")
    runner = WorkloadRunner(workload)
    print(f"workload: {abbr} ({workload.description})")

    sweep(runner, "PC-coalescer ports (paper picks 2)", [
        (f"ports={p}", DarsieConfig(skip_ports=p)) for p in (1, 2, 4, 8)
    ])
    sweep(runner, "rename registers per TB (paper allows 32)", [
        (f"regs={n}", DarsieConfig(rename_regs_per_tb=n)) for n in (2, 4, 8, 16, 32)
    ])
    sweep(runner, "redundant-write policy (Section 4.1)", [
        ("versioning", DarsieConfig()),
        ("sync-on-write", DarsieConfig(sync_on_write=True)),
    ])
    sweep(runner, "store handling (Section 4.4)", [
        ("invalidate", DarsieConfig()),
        ("ignore-store", DarsieConfig(ignore_store=True)),
    ])
    sweep(runner, "skip-table entries per TB (paper allocates 8)", [
        (f"entries={n}", DarsieConfig(skip_entries_per_tb=n)) for n in (2, 4, 8, 16)
    ])


if __name__ == "__main__":
    main()
