"""Perf-regression bench for the cycle-level timing simulator.

``python -m repro bench`` times :func:`repro.timing.simulate` — and only
``simulate`` — over the Figure-8 (workload × configuration) matrix and
writes the measurements to ``BENCH_timing.json``.  Workload construction,
the compiler analysis, the DAC profile and the output-oracle check all
happen *outside* the timed region, so the numbers track the simulator's
hot loops and nothing else.

The simulator is deterministic, so the simulated cycle count of every
entry is recorded next to its wall time: a bench result whose cycle
counts differ from the baseline is comparing two different simulations,
not a perf change, and the gate reports that separately.

Comparison model
----------------
``compare()`` checks a freshly measured report against a committed
baseline file and fails when the wall-clock time regresses by more than
``tolerance`` (a ratio; 2.0 means "twice as slow").  The gate is a
ratio, not an absolute time, so it tolerates machine-to-machine speed
differences; it cannot, however, distinguish a slow machine from a slow
simulator — which is why the default tolerance is generous and the CI
job treats the bench as a smoke test, not a microbenchmark.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence

from repro.config import DEFAULT_GPU, gpu_from_dict, gpu_to_dict
from repro.harness.runner import WorkloadRunner
from repro.timing import GPUConfig, simulate
from repro.variants import REGISTRY
from repro.workloads import ALL_ABBRS, build_workload

#: Schema version of BENCH_timing.json; bump on layout changes.
#: Schema 2 embeds a canonical ``config`` block (scale, GPU diff,
#: variant list) so the gate knows *what* was benched, not just how fast.
BENCH_SCHEMA = 2

#: Default wall-time regression gate: fail at >2x slower than baseline.
DEFAULT_TOLERANCE = 2.0

#: Noise floor for the per-entry gate.  A ~10 ms simulation can blip
#: 2-3x on a shared runner from scheduling alone, so entries whose
#: *baseline* min wall time sits below this are excluded from the
#: per-entry ratio check; they still count toward the total-ratio gate,
#: which amortizes the noise across the whole matrix.
MIN_GATE_WALL_S = 0.05


@dataclass
class BenchEntry:
    """Timing of one (workload, configuration) simulation."""

    abbr: str
    config: str
    cycles: int
    wall_s: List[float] = field(default_factory=list)

    @property
    def wall_s_min(self) -> float:
        return min(self.wall_s)

    @property
    def wall_s_median(self) -> float:
        return median(self.wall_s)

    @property
    def cycles_per_sec(self) -> float:
        return self.cycles / max(1e-12, self.wall_s_min)

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "wall_s_min": round(self.wall_s_min, 6),
            "wall_s_median": round(self.wall_s_median, 6),
            "cycles_per_sec": round(self.cycles_per_sec, 1),
            "repeats": len(self.wall_s),
        }


@dataclass
class BenchReport:
    """A full bench run, serializable to/from ``BENCH_timing.json``."""

    scale: str
    repeats: int
    fingerprint: str
    entries: Dict[str, BenchEntry]   # "ABBR/CONFIG" -> entry
    gpu_config: Optional[GPUConfig] = None

    @property
    def total_wall_s(self) -> float:
        return sum(e.wall_s_min for e in self.entries.values())

    def variants(self) -> List[str]:
        """Variant names benched, in first-seen (registry) order."""
        return list(dict.fromkeys(k.split("/", 1)[1] for k in self.entries))

    def to_dict(self) -> dict:
        return {
            "schema": BENCH_SCHEMA,
            "scale": self.scale,
            "repeats": self.repeats,
            "fingerprint": self.fingerprint,
            "config": {
                "scale": self.scale,
                "gpu": gpu_to_dict(self.gpu_config or DEFAULT_GPU),
                "variants": self.variants(),
            },
            "total_wall_s_min": round(self.total_wall_s, 6),
            "entries": {k: e.to_dict() for k, e in sorted(self.entries.items())},
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "BenchReport":
        with open(path) as fh:
            data = json.load(fh)
        if data.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"{path}: bench schema {data.get('schema')!r} != {BENCH_SCHEMA}"
            )
        entries = {}
        for key, d in data["entries"].items():
            abbr, config = key.split("/", 1)
            # min/median are reconstructed from the two summary points;
            # the raw repeat list is not persisted.
            entries[key] = BenchEntry(
                abbr=abbr,
                config=config,
                cycles=d["cycles"],
                wall_s=[d["wall_s_min"], d["wall_s_median"]],
            )
        config = data.get("config", {})
        return cls(
            scale=data["scale"],
            repeats=data["repeats"],
            fingerprint=data["fingerprint"],
            entries=entries,
            gpu_config=gpu_from_dict(config.get("gpu", {})),
        )

    def render(self) -> str:
        lines = [
            f"bench [{self.scale}] x{self.repeats}: "
            f"{len(self.entries)} entries, {self.total_wall_s:.2f}s total (min)",
        ]
        for key, e in sorted(self.entries.items()):
            lines.append(
                f"  {key:<28} {e.wall_s_min:8.3f}s  "
                f"{e.cycles:>9} cyc  {e.cycles_per_sec:>12,.0f} cyc/s"
            )
        return "\n".join(lines)


def run_bench(
    scale: str = "small",
    abbrs: Sequence[str] = ALL_ABBRS,
    configs: Optional[Sequence[str]] = None,
    repeats: int = 2,
    gpu_config: Optional[GPUConfig] = None,
    progress=None,
) -> BenchReport:
    """Time ``simulate()`` for every (workload, configuration) pair.

    ``configs`` defaults to the registry's ``fig8``-tagged variants.
    Runs serially on purpose: parallel workers would contend for cores
    and corrupt the wall-clock numbers.  Every repeat re-creates the
    memory image so no run sees a warmed-up (already written) memory.
    """
    from repro.harness.parallel import code_fingerprint

    gpu_config = gpu_config or DEFAULT_GPU
    configs = tuple(configs) if configs is not None else REGISTRY.by_tag("fig8")
    entries: Dict[str, BenchEntry] = {}
    for abbr in abbrs:
        runner = WorkloadRunner(build_workload(abbr, scale), gpu_config)
        for config in configs:
            # The variant's own program (DARM's is melded) and frontend;
            # the profile and analysis are built here, outside the timing.
            program = runner.simulation_program(config)
            factory = runner.frontend_factory(config)
            entry = BenchEntry(abbr=abbr, config=config, cycles=0)
            for _ in range(max(1, repeats)):
                mem, params = runner.workload.fresh()
                t0 = time.perf_counter()
                sim = simulate(
                    program,
                    runner.workload.launch,
                    mem,
                    params=params,
                    config=gpu_config,
                    frontend_factory=factory,
                )
                entry.wall_s.append(time.perf_counter() - t0)
                entry.cycles = sim.cycles
            entries[f"{abbr}/{config}"] = entry
            if progress is not None:
                progress(entry)
    return BenchReport(
        scale=scale,
        repeats=repeats,
        fingerprint=code_fingerprint(),
        entries=entries,
        gpu_config=gpu_config,
    )


@dataclass
class CompareResult:
    """Outcome of gating a bench report against a baseline."""

    ok: bool
    total_ratio: float
    worst_key: Optional[str]
    worst_ratio: float
    regressions: List[str]            # entries slower than tolerance
    cycle_mismatches: List[str]       # entries simulating different work
    missing: List[str]                # baseline entries absent from current

    def render(self, tolerance: float) -> str:
        verdict = "OK" if self.ok else "FAIL"
        lines = [
            f"bench gate: {verdict} "
            f"(total {self.total_ratio:.2f}x of baseline, tolerance {tolerance:.2f}x)"
        ]
        if self.worst_key is not None:
            lines.append(f"  slowest vs baseline: {self.worst_key} at {self.worst_ratio:.2f}x")
        for key in self.regressions:
            lines.append(f"  REGRESSION: {key}")
        if self.cycle_mismatches:
            lines.append(
                "  note: cycle counts differ from baseline for "
                + ", ".join(self.cycle_mismatches[:8])
                + (" ..." if len(self.cycle_mismatches) > 8 else "")
                + " (different simulation, not a perf signal)"
            )
        for key in self.missing:
            lines.append(f"  missing entry vs baseline: {key}")
        return "\n".join(lines)


def compare(
    current: BenchReport,
    baseline: BenchReport,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CompareResult:
    """Gate ``current`` against ``baseline``.

    Fails when the summed min wall time, or any single shared entry,
    exceeds ``tolerance`` × its baseline, or when baseline entries are
    missing from the current report.  Entries whose simulated cycle
    count changed are excluded from the per-entry gate (they measure
    different work) but still count toward the total.  So are entries
    whose baseline is below :data:`MIN_GATE_WALL_S` — too short to give
    a stable ratio; the total-ratio gate still covers them.
    """
    shared = sorted(set(current.entries) & set(baseline.entries))
    missing = sorted(set(baseline.entries) - set(current.entries))
    regressions: List[str] = []
    cycle_mismatches: List[str] = []
    worst_key, worst_ratio = None, 0.0
    for key in shared:
        cur, base = current.entries[key], baseline.entries[key]
        ratio = cur.wall_s_min / max(1e-12, base.wall_s_min)
        if cur.cycles != base.cycles:
            cycle_mismatches.append(key)
            continue
        if base.wall_s_min < MIN_GATE_WALL_S:
            continue
        if ratio > worst_ratio:
            worst_key, worst_ratio = key, ratio
        if ratio > tolerance:
            regressions.append(f"{key}: {cur.wall_s_min:.3f}s vs "
                               f"{base.wall_s_min:.3f}s ({ratio:.2f}x)")
    cur_total = sum(current.entries[k].wall_s_min for k in shared) if shared else 0.0
    base_total = sum(baseline.entries[k].wall_s_min for k in shared) if shared else 0.0
    total_ratio = cur_total / max(1e-12, base_total) if shared else 1.0
    ok = not regressions and not missing and total_ratio <= tolerance
    return CompareResult(
        ok=ok,
        total_ratio=total_ratio,
        worst_key=worst_key,
        worst_ratio=worst_ratio,
        regressions=regressions,
        cycle_mismatches=cycle_mismatches,
        missing=missing,
    )
