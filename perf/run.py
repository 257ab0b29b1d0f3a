"""The repository benchmark: regenerating the paper's results, cold and
warm, end to end and layer by layer.

    python3 perf/run.py --workload fig8 --seed 3 --seconds 10 --trace 0

Every measured phase runs in a fresh child process (``perf/child.py``)
with one job, a scrubbed environment and a temporary result cache under
``.perf_work/``; ``results/`` is checked to be untouched.  Times are
given at the host's nominal speed, measured inside each child by
``perf/speed.py``.  The untraced run prints the end-to-end metrics, the
traced run (``--trace 1``) the per-layer ones.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from speed import NOMINAL_STEP_S, nominal, to_nominal
from workloads import FIG8_VARIANTS, WORKLOADS, BenchWorkload, sim_digest

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ROOT / ".perf_work"
BENCH_FILE = ROOT / "benchmarks" / "BENCH_timing.json"

#: ``--seconds`` default: the least cold-sweep time one run measures.
DEFAULT_SECONDS = 10
#: A run must end within 180 s: extra cold sweeps are planned only to
#: fit inside the soft budget, and a child still running at the hard
#: limit is killed.
SOFT_BUDGET_S = 140.0
HARD_BUDGET_S = 175.0

#: Harness knobs a caller's environment could leak into the children.
SCRUBBED_ENV = ("REPRO_FAULTS", "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_SCALE", "REPRO_NO_CACHE")

#: (name, unit, better) — reported by the untraced run.
E2E = (
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("warp_insts_per_s", "warp-instr/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

STAGES = ("writeback", "decode_skip", "issue", "execute", "fetch")
FRONTEND_HOOKS = (
    "fetch_cycle", "filter_fetch", "on_fetch", "eliminate_at_issue",
    "on_executed", "on_writeback", "blocks_after_branch",
)

#: (name, unit, better) — reported by the traced run.
PER_LAYER = (
    (("timing.simulate_s", "s", "lower"),)
    + tuple((f"timing.simulate_s.{v}", "s", "lower") for v in FIG8_VARIANTS)
    + tuple((f"timing.cycles_per_s.{v}", "cycles/s", "higher") for v in FIG8_VARIANTS)
    + (
        ("timing.sim_cycles_per_s", "cycles/s", "higher"),
        ("timing.gpu_loop_self_s", "s", "lower"),
    )
    + tuple((f"timing.stage.{s}_self_s", "s", "lower") for s in STAGES)
    + (
        ("timing.pipeline_ticks", "count", "lower"),
        ("timing.ticks_per_cycle", "ticks/cycle", "lower"),
        ("timing.idle_tick_frac", "fraction", "lower"),
        ("timing.advance_idle_calls", "count", "higher"),
        ("timing.cycles", "cycles", "lower"),
        ("timing.warp_insts", "warp-instr", "lower"),
    )
    + tuple((f"timing.frontend.{h}_self_s", "s", "lower") for h in FRONTEND_HOOKS)
    + (
        ("timing.frontend_self_s", "s", "lower"),
        ("simt.execute_self_s", "s", "lower"),
        ("simt.execute_calls", "count", "lower"),
        ("simt.run_functional_s", "s", "lower"),
        ("simt.tracer_record_self_s", "s", "lower"),
        ("baselines.dac_profile_s", "s", "lower"),
        ("baselines.dac_profile_calls", "count", "lower"),
        ("core.analyze_s", "s", "lower"),
        ("core.analyze_calls", "count", "lower"),
        ("workloads.build_s", "s", "lower"),
        ("workloads.build_calls", "count", "lower"),
        ("workloads.fresh_s", "s", "lower"),
        ("workloads.verify_s", "s", "lower"),
        ("workloads.verify_failures", "count", "lower"),
        ("analysis.limit_study_s", "s", "lower"),
        ("process.import_s", "s", "lower"),
        ("harness.code_fingerprint_s", "s", "lower"),
        ("harness.cache_key_s", "s", "lower"),
        ("harness.cache_lookup_s", "s", "lower"),
        ("harness.cache_lookup_calls", "count", "lower"),
        ("harness.cache_hit_ratio", "fraction", "higher"),
        ("harness.cache_store_s", "s", "lower"),
        ("harness.cache_store_failures", "count", "lower"),
        ("harness.run_specs_self_s", "s", "lower"),
        ("harness.runner_run_self_s", "s", "lower"),
        ("trace_overhead_frac", "fraction", "lower"),
        ("trace_attributed_frac", "fraction", "higher"),
    )
)


class ChildError(RuntimeError):
    """A measured child process failed or overran the run's budget."""


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median (0.0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _variant(label: str) -> str:
    """``"MM/DARSIE@small"`` -> ``"DARSIE"``."""
    return label.split("/", 1)[1].rsplit("@", 1)[0]


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # Fixed hash order: dict/set layouts, and so timings, repeat.
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
    )
    return env


def run_child(args: List[str], hard_deadline: float) -> Tuple[dict, float]:
    """Run one phase in a fresh interpreter; ``(its JSON result, wall s)``."""
    timeout = hard_deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"no time left for child {args[0]}")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
        raise ChildError(f"child {args[0]} overran the run budget") from exc
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1]), wall


def snapshot(path: Path) -> Dict[str, Tuple[Optional[int], int]]:
    """Every file and directory under ``path`` with its size and mtime."""
    entries = {}
    for dirpath, dirnames, filenames in os.walk(path):
        for name in dirnames + filenames:
            full = os.path.join(dirpath, name)
            st = os.lstat(full)
            size = st.st_size if name in filenames else None
            entries[os.path.relpath(full, path)] = (size, st.st_mtime_ns)
    return entries


def bench_differences(rows) -> Optional[int]:
    """Specs whose cycles differ from the committed ``BENCH_timing.json``
    ("different simulation"); None when that file is at another scale."""
    try:
        bench = json.loads(BENCH_FILE.read_text())
    except (OSError, ValueError):
        return None
    entries = bench.get("entries", {})
    differ = 0
    for row in rows:
        label = row[0]
        abbr_variant, scale = label.rsplit("@", 1)
        if scale != bench.get("scale"):
            return None
        entry = entries.get(abbr_variant)
        if entry is None or entry.get("cycles") != row[1]:
            differ += 1
    return differ


def e2e_metrics(setups, colds, warms) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run from its phase results:
    medians of the phases' times at the nominal host speed."""
    cold_s = statistics.median(nominal(c["cold_s"], c["speed"]) for c in colds)
    insts = sum(r[2] for r in colds[0]["rows"])
    return {
        "cold_s": cold_s,
        "warm_s": statistics.median(nominal(w["warm_s"], w["speed"]) for w in warms),
        "setup_s": statistics.median(nominal(s["setup_s"], s["speed"]) for s in setups),
        "warp_insts_per_s": insts / cold_s,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in colds),
    }


def layer_metrics(cold: dict, warm: dict, rows, cold_s: float,
                  traced_cold_s: float) -> Dict[str, float]:
    """The per-layer metrics from the span totals of the traced cold and
    warm children (``SpanRecorder.to_dict()`` plus the child's
    ``"scale"``, its :func:`speed.to_nominal` factor), the cold sweep's
    digest rows, and the untraced and traced cold-sweep times at the
    nominal host speed.  Span times are scaled to the nominal speed too."""
    traces = (cold, warm)

    def total(name: str, field: int) -> float:
        return sum(
            t["totals"].get(name, (0, 0.0, 0.0))[field] * (t["scale"] if field else 1)
            for t in traces
        )

    def calls(name: str) -> int:
        return int(total(name, 0))

    def incl(name: str) -> float:
        return total(name, 1)

    def self_s(name: str) -> float:
        return total(name, 2)

    def counter(name: str) -> int:
        return sum(t["counters"].get(name, 0) for t in traces)

    sim_s: Dict[str, float] = {}
    for name, start, end, _parent, request in cold["records"]:
        if name == "timing.simulate" and request:
            v = _variant(request)
            sim_s[v] = sim_s.get(v, 0.0) + (end - start) * cold["scale"]
    cycles: Dict[str, int] = {}
    for row in rows:
        v = _variant(row[0])
        cycles[v] = cycles.get(v, 0) + row[1]
    all_cycles = sum(cycles.values())
    ticks = counter("timing.pipeline_ticks")
    frontend = {n for t in traces for n in t["totals"] if n.startswith("timing.frontend.")}

    m: Dict[str, float] = {"timing.simulate_s": incl("timing.simulate")}
    for v in FIG8_VARIANTS:
        m[f"timing.simulate_s.{v}"] = sim_s.get(v, 0.0)
    for v in FIG8_VARIANTS:
        m[f"timing.cycles_per_s.{v}"] = _ratio(cycles.get(v, 0), sim_s.get(v, 0.0))
    m["timing.sim_cycles_per_s"] = _ratio(all_cycles, cold_s)
    m["timing.gpu_loop_self_s"] = self_s("timing.simulate")
    for s in STAGES:
        m[f"timing.stage.{s}_self_s"] = self_s(f"timing.stage.{s}")
    m["timing.pipeline_ticks"] = ticks
    m["timing.ticks_per_cycle"] = _ratio(ticks, all_cycles)
    m["timing.idle_tick_frac"] = _ratio(counter("timing.idle_ticks"), ticks)
    m["timing.advance_idle_calls"] = counter("timing.advance_idle_calls")
    m["timing.cycles"] = all_cycles
    m["timing.warp_insts"] = sum(r[2] for r in rows if r[1])
    for h in FRONTEND_HOOKS:
        m[f"timing.frontend.{h}_self_s"] = self_s(f"timing.frontend.{h}")
    m["timing.frontend_self_s"] = sum((self_s(n) for n in frontend), 0.0)
    m["simt.execute_self_s"] = self_s("simt.execute")
    m["simt.execute_calls"] = calls("simt.execute")
    m["simt.run_functional_s"] = incl("simt.run_functional")
    m["simt.tracer_record_self_s"] = self_s("simt.tracer_record")
    m["baselines.dac_profile_s"] = incl("baselines.dac_profile")
    m["baselines.dac_profile_calls"] = calls("baselines.dac_profile")
    m["core.analyze_s"] = incl("core.analyze")
    m["core.analyze_calls"] = calls("core.analyze")
    m["workloads.build_s"] = incl("workloads.build")
    m["workloads.build_calls"] = calls("workloads.build")
    m["workloads.fresh_s"] = incl("workloads.fresh")
    m["workloads.verify_s"] = incl("workloads.verify")
    m["workloads.verify_failures"] = counter("workloads.verify_failures")
    m["analysis.limit_study_s"] = incl("analysis.limit_study")
    m["process.import_s"] = incl("process.import")
    m["harness.code_fingerprint_s"] = incl("harness.code_fingerprint")
    m["harness.cache_key_s"] = incl("harness.cache_key")
    m["harness.cache_lookup_s"] = incl("harness.cache_lookup")
    m["harness.cache_lookup_calls"] = calls("harness.cache_lookup")
    m["harness.cache_hit_ratio"] = _ratio(
        counter("harness.cache_hits"), calls("harness.cache_lookup")
    )
    m["harness.cache_store_s"] = incl("harness.cache_store")
    m["harness.cache_store_failures"] = counter("harness.cache_store_failures")
    m["harness.run_specs_self_s"] = self_s("harness.run_specs")
    m["harness.runner_run_self_s"] = self_s("harness.runner_run")
    m["trace_overhead_frac"] = _ratio(traced_cold_s, cold_s) - 1.0
    # The root span's own self time is the part no layer wrapper covers.
    m["trace_attributed_frac"] = _ratio(
        cold["scale"] * sum(
            t[2] for n, t in cold["totals"].items() if n != "harness.run_specs"
        ),
        traced_cold_s,
    )
    return m


def _cold_rep(common: List[str], seed: int, rep: int, work: Path, deadline: float,
              trace: Optional[Path] = None) -> Tuple[dict, Path]:
    cache = work / f"cache-{rep}{'-traced' if trace else ''}"
    args = ["cold", *common, "--seed", str(seed), "--cache", str(cache)]
    if trace is not None:
        args += ["--trace", str(trace)]
    out, _wall = run_child(args, deadline)
    return out, cache


def _warm_rep(common: List[str], cache: Path, deadline: float,
              trace: Optional[Path] = None) -> dict:
    args = ["warm", *common, "--cache", str(cache)]
    if trace is not None:
        args += ["--trace", str(trace)]
    out, wall = run_child(args, deadline)
    out["warm_s"] = wall
    return out


def run_workload(w: BenchWorkload, seed: int, seconds: float, trace: bool,
                 smoke: bool, start: float) -> dict:
    """One workload, untraced or traced; returns metrics, checks and raw
    phase results."""
    scale = "tiny" if smoke else w.scale
    reps = (1, 1) if smoke else (w.setup_reps, w.warm_reps)
    if smoke:
        seconds = 0.0
    soft, hard = start + SOFT_BUDGET_S, start + HARD_BUDGET_S
    common = ["--workload", w.name, "--scale", scale]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_DIR))
    results_before = snapshot(ROOT / "results")
    try:
        if trace:
            out = _traced(common, seed, work, hard)
        else:
            out = _untraced(common, seed, seconds, reps, work, soft, hard)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    colds, warms = out["colds"], out["warms"]
    digests = [sim_digest(c["rows"]) for c in colds]
    failed = sum(len(c["failed"]) for c in colds)
    failed += sum(x["lookups"] - x["hits"] for x in warms)
    checks = {
        "ops": sum(c["attempted"] for c in colds) + sum(x["lookups"] for x in warms),
        "ops_failed": failed,
        "warm_simulated": [x["simulated"] for x in warms],
        "sim_digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "results_untouched": snapshot(ROOT / "results") == results_before,
        "different_simulation": (
            bench_differences(colds[0]["rows"]) if w.name == "fig8" else None
        ),
    }
    checks["correct"] = (
        failed == 0
        and not any(checks["warm_simulated"])
        and checks["digests_agree"]
        and checks["results_untouched"]
    )
    out.update(workload=w.name, scale=scale, seed=seed, traced=trace, checks=checks)
    return out


def extra_cold_sweeps(seconds: float, first_s: float, time_left_s: float) -> int:
    """How many cold sweeps to add to a first one that took ``first_s``
    so that ``seconds`` of them are measured, as far as ``time_left_s``
    holds them and the run's other phases (allowed as much again)."""
    wanted = math.ceil(seconds / first_s) - 1
    fits = int(time_left_s / (2.0 * first_s))
    return max(0, min(wanted, fits))


def _untraced(common, seed, seconds, reps, work, soft, hard) -> dict:
    setup_reps, warm_reps = reps
    setups: List[dict] = []
    colds: List[dict] = []
    warms: List[dict] = []

    def cold() -> Path:
        # Each sweep gets its own order, so reps also cross-check that
        # the results do not depend on it.
        out, cache = _cold_rep(common, seed + len(colds), len(colds), work, hard)
        colds.append(out)
        return cache

    warm_cache = cold()
    cold_reps = extra_cold_sweeps(seconds, colds[0]["cold_s"], soft - time.monotonic())
    # The host's speed drifts over seconds to minutes: spreading each
    # phase's repetitions evenly over the run keeps one slow stretch
    # from setting a whole median.
    plan = sorted(
        ((i + 0.5) / n, kind)
        for kind, n in (("cold", cold_reps), ("setup", setup_reps), ("warm", warm_reps))
        for i in range(n)
    )
    for _position, kind in plan:
        if kind == "cold":
            shutil.rmtree(cold(), ignore_errors=True)
        elif kind == "setup":
            setups.append(run_child(["setup", *common, "--seed", str(seed)], hard)[0])
        else:
            warms.append(_warm_rep(common, warm_cache, hard))
    return {
        "setups": setups,
        "colds": colds,
        "warms": warms,
        "metrics": e2e_metrics(setups, colds, warms),
        "units": {n: u for n, u, _ in E2E},
    }


def _traced(common, seed, work, hard) -> dict:
    untraced, _ = _cold_rep(common, seed, 0, work, hard)
    cold_trace, warm_trace = work / "cold-spans.json", work / "warm-spans.json"
    traced, cache = _cold_rep(common, seed, 0, work, hard, trace=cold_trace)
    warm = _warm_rep(common, cache, hard, trace=warm_trace)
    spans = {
        "cold": dict(json.loads(cold_trace.read_text()), scale=to_nominal(traced["speed"])),
        "warm": dict(json.loads(warm_trace.read_text()), scale=to_nominal(warm["speed"])),
    }
    metrics = layer_metrics(
        spans["cold"], spans["warm"], traced["rows"],
        nominal(untraced["cold_s"], untraced["speed"]),
        nominal(traced["cold_s"], traced["speed"]),
    )
    return {
        "colds": [untraced, traced],
        "warms": [warm],
        "spans": spans,
        "metrics": metrics,
        "units": {n: u for n, u, _ in PER_LAYER},
    }


def render(res: dict) -> List[str]:
    """The human-readable report of one workload run."""
    checks = res["checks"]
    mode = "traced" if res["traced"] else "untraced"
    lines = [f"== {res['workload']} (scale {res['scale']}, seed {res['seed']}, {mode}) =="]
    for name, value in res["metrics"].items():
        lines.append(f"  {name:<40} {value:>16.6g} {res['units'][name]}")
    if not res["traced"]:
        phases = res["colds"] + res["setups"] + res["warms"]
        slower = statistics.median(p["speed"]["mean_step_s"] for p in phases) / NOMINAL_STEP_S
        lines += [
            f"  cold sweeps {len(res['colds'])}, set-ups {len(res['setups'])}, "
            f"warm runs {len(res['warms'])} (medians reported)",
            f"  host {slower:.3f}x the nominal step time (median over the phases); "
            f"times above are scaled to nominal, raw cold sweep median "
            f"{statistics.median(c['cold_s'] for c in res['colds']):.3f} s",
        ]
    diff = checks["different_simulation"]
    lines += [
        f"  ops_failed {checks['ops_failed']} of ops {checks['ops']}",
        f"  warm phase simulated {checks['warm_simulated']} (must be 0)",
        f"  sim_digest {checks['sim_digest']} "
        f"({'agrees' if checks['digests_agree'] else 'DIFFERS'} across "
        f"{len(res['colds'])} {'traced/untraced ' if res['traced'] else ''}cold sweeps)",
        f"  results/ {'untouched' if checks['results_untouched'] else 'MODIFIED'}",
    ]
    if diff is not None:
        lines.append(
            f"  different simulation: {diff} of {len(res['colds'][0]['rows'])} specs "
            "vs benchmarks/BENCH_timing.json (reported, not a failure)"
        )
    if res["traced"]:
        traced = res["colds"][1]
        cold_s = traced["cold_s"] - traced["speed"]["busy_s"]
        totals = res["spans"]["cold"]["totals"]
        lines.append(
            f"  layer ranking: self time in the traced cold sweep ({cold_s:.3f} host s)"
        )
        for name, (n, _incl, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
            lines.append(
                f"    {name:<36} {self_s:>9.3f} s {100 * self_s / cold_s:6.1f}%  {int(n)} calls"
            )
    lines.append(f"  correct: {checks['correct']}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order of the specs; 0 keeps the drivers' order")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="cold-sweep time to measure at least (within the run budget)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="every phase once, at tiny scale (a quick end-to-end check)")
    parser.add_argument("--out", help="also write the full report (spans included) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    try:
        for name in names:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               args.smoke, time.monotonic())
            print("\n".join(render(res)), flush=True)
            runs.append(res)
    except ChildError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
    metrics = {}
    for res in runs:
        prefix = "" if len(runs) == 1 else f"{res['workload']}."
        for name, value in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": res["units"][name]}
    correct = all(r["checks"]["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["checks"]["ops"] for r in runs),
        "failed": sum(r["checks"]["ops_failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
