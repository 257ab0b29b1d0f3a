"""Run the benchmark repeatedly and report each metric's run-to-run spread.

    python3 perf/calibrate.py --runs 10 --first-seed 1

Each round runs every workload once (round-robin, so slow drift of the
machine lands on all workloads alike), each round with the next seed.
For every (workload, end-to-end metric) it prints the median and the
spread — interquartile range over median, as ``statistics.quantiles``
gives it — next to the bound ``BENCHMARK.json`` declares, and it fails
when a run is incorrect or the ``sim_digest`` differs between seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, WORK_DIR, spread
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--out", help="write every run's metrics and checks here (JSON)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or list(WORKLOADS)
    runs = {name: [] for name in names}
    WORK_DIR.mkdir(exist_ok=True)
    report = WORK_DIR / "calibrate-run.json"
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", name, "--seed", str(seed), "--trace", "0",
                 "--seconds", str(spec["run_seconds"]), "--out", str(report)],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(report.read_text())[0]
            runs[name].append({
                "seed": seed, "wall_s": wall, "metrics": res["metrics"],
                "checks": res["checks"],
            })
            print(f"{name} seed {seed}: {wall:.1f} s, "
                  + ", ".join(f"{k} {v:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
    report.unlink(missing_ok=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))

    print("\n| workload | metric | median | spread (IQR/median) | bound |")
    print("|---|---|---|---|---|")
    for name, rs in runs.items():
        if not rs:
            continue
        for metric in rs[0]["metrics"]:
            values = [r["metrics"][metric] for r in rs]
            print(f"| {name} | {metric} | {statistics.median(values):.5g} | "
                  f"{100 * spread(values):.2f}% | {100 * bounds[metric]:.0f}% |")
        digests = {r["checks"]["sim_digest"] for r in rs}
        walls = [r["wall_s"] for r in rs]
        print(f"| {name} | run wall time | {statistics.median(walls):.1f} s | "
              f"max {max(walls):.1f} s | |")
        if len(digests) != 1 or not all(r["checks"]["correct"] for r in rs):
            print(f"{name}: sim_digest differs across seeds or a run was incorrect")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
