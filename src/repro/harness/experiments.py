"""One driver per paper table / figure.

Every driver returns a small result object whose ``render()`` prints the
same rows/series the paper reports, and whose fields are plain data so
tests and benches can assert on the reproduced *shape* (who wins, by
roughly what factor) without parsing text.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import default_survey, geomean
from repro.analysis.limit_study import LevelBreakdown, average_levels
from repro.analysis.taxonomy_study import TaxonomyBreakdown
from repro.config import DEFAULT_GPU, RunConfig, apply_overrides
from repro.core import analyze_program, paper_area_model
from repro.energy import PASCAL_ENERGY_MODEL
from repro.harness import parallel
from repro.harness.parallel import SweepStats
from repro.harness.related_work import render_table3
from repro.harness.reporting import fmt_pct, fmt_x, format_table
from repro.timing import GPUConfig, PASCAL_GTX1080TI, small_config
from repro.variants import REGISTRY
from repro.workloads import (
    ALL_ABBRS,
    EXTENDED_ABBRS,
    ONE_D_ABBRS,
    TWO_D_ABBRS,
    build_workload,
    table1_rows,
)

#: Experiment-name -> driver registry; the CLI derives its dispatch
#: (and each driver's accepted arguments) from here via introspection,
#: so adding an experiment is one decorated definition.
EXPERIMENT_REGISTRY: Dict[str, Callable] = {}


def experiment(name: Optional[str] = None) -> Callable:
    """Register a driver under ``name`` (default: the function name)."""
    def decorate(fn: Callable) -> Callable:
        EXPERIMENT_REGISTRY[name or fn.__name__] = fn
        return fn
    return decorate


# ---------------------------------------------------------------------------
# Figure 1 / Figure 2 — functional limit studies
# ---------------------------------------------------------------------------


@dataclass
class Figure1Result:
    per_workload: Dict[str, LevelBreakdown]
    average: LevelBreakdown
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)

    def render(self) -> str:
        headers = ["App", "Grid-wide", "TB-wide", "Warp-wide", "Vector", "Scalar"]
        rows = [
            [abbr] + [fmt_pct(getattr(b, k)) for k in ("grid", "tb", "warp", "vector", "scalar")]
            for abbr, b in self.per_workload.items()
        ]
        rows.append(
            ["AVG"]
            + [fmt_pct(getattr(self.average, k)) for k in ("grid", "tb", "warp", "vector", "scalar")]
        )
        return format_table(
            headers, rows,
            title="Figure 1: redundant instructions per GPU thread-grouping level",
        )


@experiment()
def figure1(scale: str = "small", abbrs: Sequence[str] = ALL_ABBRS) -> Figure1Result:
    """Redundancy at the grid / TB / warp level, averaged across apps."""
    analyses, stats = parallel.functional_sweep(abbrs, scale)
    per = {abbr: analyses[abbr].levels for abbr in abbrs}
    return Figure1Result(
        per_workload=per,
        average=average_levels(list(per.values())),
        sweep_stats=stats,
    )


@dataclass
class Figure2Result:
    per_workload: Dict[str, TaxonomyBreakdown]
    dimensionality: Dict[str, int]
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)

    def render(self) -> str:
        headers = ["App", "TBdim", "Uniform", "Affine", "Unstructured", "Non-Red."]
        rows = [
            [
                abbr,
                f"{self.dimensionality[abbr]}D",
                fmt_pct(b.uniform),
                fmt_pct(b.affine),
                fmt_pct(b.unstructured),
                fmt_pct(b.non_redundant),
            ]
            for abbr, b in self.per_workload.items()
        ]
        return format_table(
            headers, rows,
            title="Figure 2: fraction of dynamically executed TB-redundant instructions",
        )


@experiment()
def figure2(scale: str = "small", abbrs: Sequence[str] = ALL_ABBRS) -> Figure2Result:
    analyses, stats = parallel.functional_sweep(abbrs, scale)
    per = {abbr: analyses[abbr].taxonomy for abbr in abbrs}
    dims = {abbr: analyses[abbr].dimensionality for abbr in abbrs}
    return Figure2Result(per_workload=per, dimensionality=dims, sweep_stats=stats)


# ---------------------------------------------------------------------------
# Figure 6 — compiler markings on the MM kernel
# ---------------------------------------------------------------------------


@dataclass
class Figure6Result:
    listing: str
    counts: Dict[str, int]

    def render(self) -> str:
        summary = ", ".join(f"{k}: {v}" for k, v in self.counts.items())
        return (
            "Figure 6: compiler markings for the matrix-multiply kernel\n"
            f"({summary})\n\n" + self.listing
        )


@experiment()
def figure6(scale: str = "small") -> Figure6Result:
    wl = build_workload("MM", scale)
    analysis = analyze_program(wl.program)
    counts = {m.short: n for m, n in analysis.counts().items()}
    return Figure6Result(listing=analysis.annotated_listing(), counts=counts)


# ---------------------------------------------------------------------------
# Tables 1 / 2 / 3
# ---------------------------------------------------------------------------


@experiment()
def table1() -> str:
    headers = ["Abbr", "Name", "Suite", "TB dim", "Dims"]
    return format_table(headers, table1_rows(), title="Table 1: applications studied")


@experiment()
def table2(config: GPUConfig = PASCAL_GTX1080TI) -> str:
    rows = [
        ["GPU", f"Pascal ({config.name}), {config.num_sms} SMs, "
                f"{config.max_warps_per_sm} warps/SM, {config.max_tbs_per_sm} TBs/SM"],
        ["SM", f"{config.warp_size} SIMD width, "
               f"{config.vector_registers_per_sm} vector registers per SM"],
        ["Scheduler", f"{config.num_schedulers} warp schedulers/SM, GTO scheduling"],
        ["L1/shared", "96KB shared memory/SM"],
        ["Register", "14.2pJ/read 25.9pJ/write"],
    ]
    return format_table(["Parameter", "Value"], rows, title="Table 2: baseline GPU")


@experiment()
def table3() -> str:
    return render_table3()


# ---------------------------------------------------------------------------
# Figure 8 — speedups
# ---------------------------------------------------------------------------


@dataclass
class SpeedupResult:
    configs: Tuple[str, ...]
    per_workload: Dict[str, Dict[str, float]]   # abbr -> config -> speedup
    gmean_1d: Dict[str, float]
    gmean_2d: Dict[str, float]
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)

    def render(self, title: str = "Figure 8: speedup over the baseline GPU") -> str:
        headers = ["App"] + [c for c in self.configs]
        rows = [
            [abbr] + [fmt_x(vals[c]) for c in self.configs]
            for abbr, vals in self.per_workload.items()
        ]
        if self.gmean_1d:
            rows.append(["GMEAN-1D"] + [fmt_x(self.gmean_1d[c]) for c in self.configs])
        if self.gmean_2d:
            rows.append(["GMEAN-2D"] + [fmt_x(self.gmean_2d[c]) for c in self.configs])
        return format_table(headers, rows, title=title)


def _speedup_sweep(
    configs: Sequence[str],
    scale: str,
    abbrs: Sequence[str],
    gpu_config: Optional[GPUConfig],
) -> SpeedupResult:
    run_configs = tuple(dict.fromkeys(("BASE",) + tuple(configs)))
    results, stats = parallel.sweep(abbrs, run_configs, scale=scale, gpu_config=gpu_config)
    per: Dict[str, Dict[str, float]] = {}
    for abbr in abbrs:
        base = results[abbr, "BASE"].cycles
        per[abbr] = {c: base / results[abbr, c].cycles for c in configs}
    def gm(group):
        members = [a for a in group if a in per]
        if not members:
            return {}
        # Speedups are ratios of positive cycle counts; a degenerate run
        # (zero-cycle result) is dropped with a warning rather than
        # clamped to 1e-9, which would poison the GMEAN.
        return {
            c: geomean(
                [per[a][c] for a in members], skip_nonpositive=True
            )
            for c in configs
        }
    return SpeedupResult(
        configs=tuple(configs),
        per_workload=per,
        gmean_1d=gm(ONE_D_ABBRS),
        gmean_2d=gm(TWO_D_ABBRS),
        sweep_stats=stats,
    )


@experiment()
def figure8(
    scale: str = "small",
    abbrs: Sequence[str] = ALL_ABBRS,
    gpu_config: Optional[GPUConfig] = None,
) -> SpeedupResult:
    """Speedup of UV / DAC-IDEAL / DARSIE / DARSIE-IGNORE-STORE."""
    return _speedup_sweep(REGISTRY.by_tag("fig8"), scale, abbrs, gpu_config)


# ---------------------------------------------------------------------------
# Figures 9 / 10 — instruction reduction breakdowns
# ---------------------------------------------------------------------------


@dataclass
class ReductionResult:
    configs: Tuple[str, ...]
    #: abbr -> config -> {class -> fraction of baseline instructions}
    per_workload: Dict[str, Dict[str, Dict[str, float]]]
    gmean_total: Dict[str, float]
    title: str
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)

    def total(self, abbr: str, config: str) -> float:
        return sum(self.per_workload[abbr][config].values())

    def render(self) -> str:
        headers = ["App", "Config", "Uniform", "Affine", "Unstructured", "Total"]
        rows = []
        for abbr, by_config in self.per_workload.items():
            for config in self.configs:
                b = by_config[config]
                rows.append([
                    abbr, config,
                    fmt_pct(b.get("uniform", 0.0)),
                    fmt_pct(b.get("affine", 0.0)),
                    fmt_pct(b.get("unstructured", 0.0)),
                    fmt_pct(sum(b.values())),
                ])
        for config in self.configs:
            rows.append(["GMEAN", config, "", "", "", fmt_pct(self.gmean_total[config])])
        return format_table(headers, rows, title=self.title)


def _reduction_sweep(scale, abbrs, title, gpu_config=None) -> ReductionResult:
    reduction_configs = REGISTRY.by_tag("reduction")
    results, sweep_stats = parallel.sweep(
        abbrs, ("BASE",) + reduction_configs, scale=scale, gpu_config=gpu_config
    )
    per: Dict[str, Dict[str, Dict[str, float]]] = {}
    for abbr in abbrs:
        base_exec = results[abbr, "BASE"].stats.instructions_executed
        per[abbr] = {}
        for config in reduction_configs:
            stats = results[abbr, config].stats
            removed = dict(stats.skipped_by_class)
            for cls, n in stats.eliminated_by_class.items():
                removed[cls] = removed.get(cls, 0) + n
            per[abbr][config] = {cls: n / base_exec for cls, n in removed.items()}
    # An app with nothing removed is dropped with a warning rather than
    # clamped to 1e-9, which would poison the GMEAN (as in _speedup_sweep).
    gmean_total = {
        config: geomean(
            [sum(per[a][config].values()) for a in per], skip_nonpositive=True
        )
        for config in reduction_configs
    }
    return ReductionResult(
        configs=reduction_configs, per_workload=per, gmean_total=gmean_total,
        title=title, sweep_stats=sweep_stats,
    )


@experiment()
def figure9(scale: str = "small", gpu_config: Optional[GPUConfig] = None) -> ReductionResult:
    """1D-benchmark instruction reduction vs the baseline."""
    return _reduction_sweep(
        scale, ONE_D_ABBRS,
        "Figure 9: percent reduction in 1D benchmark instructions vs baseline",
        gpu_config,
    )


@experiment()
def figure10(scale: str = "small", gpu_config: Optional[GPUConfig] = None) -> ReductionResult:
    """2D-benchmark instruction reduction vs the baseline."""
    return _reduction_sweep(
        scale, TWO_D_ABBRS,
        "Figure 10: percent reduction in 2D benchmark instructions vs baseline",
        gpu_config,
    )


# ---------------------------------------------------------------------------
# Figure 11 — energy reduction
# ---------------------------------------------------------------------------


@dataclass
class EnergyResult:
    configs: Tuple[str, ...]
    per_workload: Dict[str, Dict[str, float]]   # abbr -> config -> reduction
    gmean_1d: Dict[str, float]
    gmean_2d: Dict[str, float]
    darsie_overhead: Dict[str, float]           # abbr -> overhead fraction
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)

    def render(self) -> str:
        headers = ["App"] + list(self.configs) + ["DARSIE overhead"]
        rows = [
            [abbr] + [fmt_pct(v[c]) for c in self.configs] + [fmt_pct(self.darsie_overhead[abbr])]
            for abbr, v in self.per_workload.items()
        ]
        if self.gmean_1d:
            rows.append(["GMEAN-1D"] + [fmt_pct(self.gmean_1d[c]) for c in self.configs] + [""])
        if self.gmean_2d:
            rows.append(["GMEAN-2D"] + [fmt_pct(self.gmean_2d[c]) for c in self.configs] + [""])
        return format_table(
            headers, rows, title="Figure 11: percent energy reduction vs the baseline"
        )


@experiment()
def figure11(
    scale: str = "small",
    abbrs: Sequence[str] = ALL_ABBRS,
    gpu_config: Optional[GPUConfig] = None,
) -> EnergyResult:
    configs = REGISTRY.by_tag("reduction")
    results, stats = parallel.sweep(
        abbrs, ("BASE",) + configs, scale=scale, gpu_config=gpu_config
    )
    num_sms = (gpu_config or small_config(num_sms=1)).num_sms
    darsie = REGISTRY.get("DARSIE")
    per: Dict[str, Dict[str, float]] = {}
    overhead: Dict[str, float] = {}
    for abbr in abbrs:
        base = results[abbr, "BASE"].energy_pj
        per[abbr] = {c: 1.0 - results[abbr, c].energy_pj / base for c in configs}
        overhead[abbr] = darsie.overhead_fraction(
            PASCAL_ENERGY_MODEL, results[abbr, "DARSIE"].stats, num_sms
        )
    def gm(group):
        members = [a for a in group if a in per]
        if not members:
            return {}
        # The GMEAN is over remaining-energy ratios (1 - reduction); a
        # workload whose DARSIE energy hits exactly zero would clamp to
        # 1e-9 and drag the group's reduction to ~100% — skip it with a
        # warning instead so the figure reflects the measured members.
        return {
            c: 1.0
            - geomean(
                [1.0 - per[a][c] for a in members], skip_nonpositive=True
            )
            for c in configs
        }
    return EnergyResult(
        configs=configs,
        per_workload=per,
        gmean_1d=gm(ONE_D_ABBRS),
        gmean_2d=gm(TWO_D_ABBRS),
        darsie_overhead=overhead,
        sweep_stats=stats,
    )


# ---------------------------------------------------------------------------
# Figure 12 — synchronization effects
# ---------------------------------------------------------------------------


@experiment()
def figure12(
    scale: str = "small",
    abbrs: Sequence[str] = ALL_ABBRS,
    gpu_config: Optional[GPUConfig] = None,
) -> SpeedupResult:
    """DARSIE vs DARSIE-NO-CF-SYNC vs SILICON-SYNC."""
    return _speedup_sweep(REGISTRY.by_tag("fig12"), scale, abbrs, gpu_config)


# ---------------------------------------------------------------------------
# Section 6.3 — area; Section 1 — survey
# ---------------------------------------------------------------------------


@experiment("area")
def area_estimate() -> str:
    return paper_area_model().report()


@dataclass
class SurveyResult:
    num_applications: int
    fraction_multi_dimensional: float
    fraction_library_multi_dimensional: float
    mean_time_in_md_kernels: float
    num_2d_kernels: int
    promotion_failures: int

    def render(self) -> str:
        rows = [
            ["applications surveyed", self.num_applications],
            ["multi-dimensional apps", fmt_pct(self.fraction_multi_dimensional)],
            ["library apps that are multi-dimensional",
             fmt_pct(self.fraction_library_multi_dimensional)],
            ["mean exec. time in multi-dimensional kernels",
             fmt_pct(self.mean_time_in_md_kernels)],
            ["unique 2D kernels", self.num_2d_kernels],
            ["2D kernels failing the promotion criterion", self.promotion_failures],
        ]
        return format_table(["Statistic", "Value"], rows,
                            title="Section 1: application survey (synthetic dataset)")


@experiment()
def survey() -> SurveyResult:
    s = default_survey()
    return SurveyResult(
        num_applications=s.num_applications,
        fraction_multi_dimensional=s.fraction_multi_dimensional,
        fraction_library_multi_dimensional=s.fraction_library_multi_dimensional,
        mean_time_in_md_kernels=s.mean_time_in_multi_dimensional_kernels,
        num_2d_kernels=len(s.unique_2d_kernels()),
        promotion_failures=len(s.promotion_failures()),
    )


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md Section 4) — not paper figures, design-choice benches
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    parameter: str
    points: List[Tuple[object, float]]   # (value, speedup over BASE)
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)

    def render(self) -> str:
        rows = [[str(v), fmt_x(s)] for v, s in self.points]
        return format_table([self.parameter, "speedup"], rows,
                            title=f"Ablation: DARSIE speedup vs {self.parameter}")


def ablation_sweep(
    field_path: str,
    values: Sequence[object],
    abbr: str = "MM",
    scale: str = "small",
    gpu_config: Optional[GPUConfig] = None,
    variant: str = "DARSIE",
    parameter: Optional[str] = None,
) -> AblationResult:
    """Sweep one dotted :class:`RunConfig` field and report speedup over BASE.

    ``darsie.*`` fields vary the frontend only, so every point shares a
    single BASE run; ``gpu.*`` fields change the machine, so each point
    gets its own BASE on the same hardware.
    """
    root = field_path.split(".", 1)[0]
    base_cfg = RunConfig(abbr=abbr, scale=scale, gpu=gpu_config or DEFAULT_GPU)
    specs: List[RunConfig] = []
    index: List[Tuple[object, int, int]] = []   # (value, base idx, variant idx)
    if root != "gpu":
        specs.append(base_cfg)
    for value in values:
        var_cfg = apply_overrides(replace(base_cfg, variant=variant), {field_path: value})
        if root == "gpu":
            base_idx = len(specs)
            specs.append(replace(var_cfg, variant="BASE", darsie=None))
        else:
            base_idx = 0
            var_cfg = replace(var_cfg, variant=f"{variant}-{field_path.split('.')[-1]}={value}")
        index.append((value, base_idx, len(specs)))
        specs.append(var_cfg)
    outcomes, stats = parallel.run_specs(specs, strict=True)
    points = [
        (value, outcomes[b].result.cycles / outcomes[v].result.cycles)
        for value, b, v in index
    ]
    return AblationResult(
        parameter=parameter or field_path, points=points, sweep_stats=stats
    )


def ablation_skip_ports(
    abbr: str = "MM", scale: str = "small",
    ports: Sequence[int] = (1, 2, 4, 8),
    gpu_config: Optional[GPUConfig] = None,
) -> AblationResult:
    return ablation_sweep(
        "darsie.skip_ports", ports, abbr=abbr, scale=scale,
        gpu_config=gpu_config, parameter="PC-coalescer ports",
    )


def ablation_rename_registers(
    abbr: str = "MM", scale: str = "small",
    sizes: Sequence[int] = (4, 8, 16, 32),
    gpu_config: Optional[GPUConfig] = None,
) -> AblationResult:
    return ablation_sweep(
        "darsie.rename_regs_per_tb", sizes, abbr=abbr, scale=scale,
        gpu_config=gpu_config, parameter="rename registers per TB",
    )


def ablation_sync_on_write(
    abbr: str = "MM", scale: str = "small", gpu_config: Optional[GPUConfig] = None
) -> AblationResult:
    """Versioning (paper's choice) vs synchronize-on-every-write."""
    result = ablation_sweep(
        "darsie.sync_on_write", (False, True), abbr=abbr, scale=scale,
        gpu_config=gpu_config, parameter="redundant-write policy",
    )
    labels = {False: "versioning", True: "sync-on-write"}
    result.points = [(labels[v], s) for v, s in result.points]
    return result


# ---------------------------------------------------------------------------
# Technique comparison — BASE vs DARSIE vs control-flow melding (DARM)
# ---------------------------------------------------------------------------


@dataclass
class TechniqueComparisonResult:
    """Cycles, energy and dynamic divergence for each technique."""

    configs: Tuple[str, ...]
    #: abbr -> config -> metric name -> value
    per_workload: Dict[str, Dict[str, Dict[str, float]]]
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)

    def metric(self, abbr: str, config: str, name: str) -> float:
        return self.per_workload[abbr][config][name]

    def divergence_reduction(self, abbr: str, config: str) -> float:
        """Fraction of baseline divergence-serialized instruction slots
        the technique removed (1.0 = all divergence eliminated)."""
        base = self.per_workload[abbr]["BASE"]["serialized"]
        if base == 0:
            return 0.0
        return 1.0 - self.per_workload[abbr][config]["serialized"] / base

    def render(self) -> str:
        headers = [
            "App", "Config", "Cycles", "Speedup", "Energy (nJ)",
            "DivBranches", "Serialized",
        ]
        rows = []
        for abbr, by_config in self.per_workload.items():
            for config in self.configs:
                m = by_config[config]
                rows.append([
                    abbr, config,
                    f"{int(m['cycles'])}",
                    fmt_x(m["speedup"]),
                    f"{m['energy_pj'] / 1e3:.1f}",
                    f"{int(m['divergent_branches'])}",
                    f"{int(m['serialized'])}",
                ])
        return format_table(
            headers, rows,
            title="Technique comparison: redundancy elimination (DARSIE) "
                  "vs control-flow melding (DARM)",
        )


@experiment(name="compare-techniques")
def compare_techniques(
    scale: str = "tiny",
    abbrs: Optional[Sequence[str]] = None,
    gpu_config: Optional[GPUConfig] = None,
) -> TechniqueComparisonResult:
    """BASE / DARSIE / DARM / DARM-IDEAL across all workloads.

    DARSIE attacks *redundant* instructions (dimensionality analysis);
    DARM attacks *divergent* control flow (melding).  Table 1 kernels
    are divergence-free, the divergent suite is redundancy-light, so
    each technique dominates on its own territory — the point of the
    matrix.
    """
    if abbrs is None:
        abbrs = EXTENDED_ABBRS
    configs = ("BASE", "DARSIE") + REGISTRY.by_tag("technique")
    results, stats = parallel.sweep(abbrs, configs, scale=scale, gpu_config=gpu_config)
    per: Dict[str, Dict[str, Dict[str, float]]] = {}
    for abbr in abbrs:
        base_cycles = results[abbr, "BASE"].cycles
        per[abbr] = {}
        for config in configs:
            res = results[abbr, config]
            per[abbr][config] = {
                "cycles": float(res.cycles),
                "speedup": base_cycles / res.cycles,
                "energy_pj": res.energy_pj,
                "divergent_branches": float(res.stats.divergent_branches),
                "serialized": float(res.stats.divergence_serialized_instructions),
            }
    return TechniqueComparisonResult(
        configs=configs, per_workload=per, sweep_stats=stats
    )
