"""Workload runner: registry-declared variants over the shared substrate.

Every variant runs the same kernel on the same timing model and is
verified against the workload's numpy oracle — a run that produces wrong
results raises, so no experiment can silently report numbers from a
broken mechanism.

Which variants exist, how their frontends are built and which inputs
they need is declared once in :data:`repro.variants.REGISTRY`; the
runner just resolves names against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.baselines import build_dac_profile
from repro.config import RunConfig
from repro.core import CompilerAnalysis, DarsieConfig, DarsieFrontend, analyze_program
from repro.energy import EnergyModel, PASCAL_ENERGY_MODEL, get_energy_model
from repro.isa.program import Program
from repro.simt import Tracer, run_functional
from repro.simt.tracer import ExecutionTrace
from repro.timing import GPUConfig, SimulationResult, simulate, small_config
from repro.variants import REGISTRY, Variant, VariantRegistry
from repro.workloads import Workload, build_workload


class VerificationError(AssertionError):
    """A timing run produced results that disagree with the oracle."""


@dataclass
class RunResult:
    """One (workload, configuration) timing run."""

    workload: str
    config_name: str
    sim: SimulationResult
    energy_pj: float

    @property
    def cycles(self) -> int:
        return self.sim.cycles

    @property
    def stats(self):
        return self.sim.stats


class WorkloadRunner:
    """Runs one workload under registered variants, with caching."""

    def __init__(
        self,
        workload: Workload,
        gpu_config: Optional[GPUConfig] = None,
        energy_model: EnergyModel = PASCAL_ENERGY_MODEL,
        registry: VariantRegistry = REGISTRY,
    ):
        self.workload = workload
        self.gpu_config = gpu_config or small_config(num_sms=1)
        self.energy_model = energy_model
        self.registry = registry
        self._analysis: Optional[CompilerAnalysis] = None
        self._results: Dict[str, RunResult] = {}
        self._dac_profile = None
        self._trace: Optional[ExecutionTrace] = None
        self._transformed: Dict[str, Program] = {}

    @classmethod
    def from_config(
        cls, config: RunConfig, registry: VariantRegistry = REGISTRY
    ) -> "WorkloadRunner":
        """Build the substrate a :class:`RunConfig` describes."""
        return cls(
            build_workload(config.abbr, config.scale),
            gpu_config=config.gpu,
            energy_model=get_energy_model(config.energy),
            registry=registry,
        )

    # -- building blocks -----------------------------------------------------

    @property
    def analysis(self) -> CompilerAnalysis:
        """The compiler pass's analysis of the workload, made on first
        read: only the variants that declare ``requires=("analysis",)``
        read it."""
        if self._analysis is None:
            self._analysis = analyze_program(self.workload.program)
        return self._analysis

    def functional_trace(self) -> ExecutionTrace:
        """Functional run with the tracer attached (limit studies)."""
        if self._trace is None:
            mem, params = self.workload.fresh()
            tracer = Tracer()
            run_functional(
                self.workload.program, self.workload.launch, mem,
                params=params, tracer=tracer,
            )
            if not self.workload.verify(mem, params):
                raise VerificationError(f"{self.workload.abbr}: functional run failed oracle")
            self._trace = tracer.trace
        return self._trace

    def dac_profile(self):
        if self._dac_profile is None:
            mem, params = self.workload.fresh()
            self._dac_profile = build_dac_profile(
                self.workload.program, self.workload.launch, mem.words.copy(), params
            )
        return self._dac_profile

    def variant(self, name: str) -> Variant:
        return self.registry.get(name)

    def simulation_program(self, name: str) -> Program:
        """The program the timing simulator runs for variant ``name``.

        Variants declaring a :attr:`~repro.variants.Variant.staticlib_pass`
        (the DARM melding configurations) simulate the transformed
        program; everything else simulates the workload's program as
        written.  Transforms are cached per variant name.  Ad-hoc names
        that aren't registered (explicit-knob DARSIE ablation points)
        run the original program.
        """
        if name not in self.registry:
            return self.workload.program
        variant = self.registry.get(name)
        if variant.staticlib_pass is None:
            return self.workload.program
        if name not in self._transformed:
            self._transformed[name] = variant.staticlib_pass(self.workload.program)
        return self._transformed[name]

    def frontend_factory(
        self, name: str, darsie_config: Optional[DarsieConfig] = None
    ) -> Optional[Callable]:
        """Resolve a variant name to a frontend factory.

        Explicit ``darsie_config`` knobs take precedence over the
        variant's declared defaults; an unregistered name with explicit
        knobs (ad-hoc ablation points like ``DARSIE-ports4``) builds a
        plain DARSIE frontend with those knobs.
        """
        if darsie_config is not None:
            return lambda: DarsieFrontend(self.analysis, darsie_config)
        variant = self.registry.get(name)
        return variant.make_frontend(self, variant.darsie_defaults)

    # -- running -----------------------------------------------------------------

    def run(
        self, config_name: str, darsie_config: Optional[DarsieConfig] = None
    ) -> RunResult:
        """Run (and cache) one named configuration."""
        cache_key = config_name if darsie_config is None else None
        if cache_key and cache_key in self._results:
            return self._results[cache_key]
        factory = self.frontend_factory(config_name, darsie_config)
        mem, params = self.workload.fresh()
        sim = simulate(
            self.simulation_program(config_name),
            self.workload.launch,
            mem,
            params=params,
            config=self.gpu_config,
            frontend_factory=factory,
        )
        if not self.workload.verify(mem, params):
            raise VerificationError(
                f"{self.workload.abbr} under {config_name}: output mismatch vs oracle"
            )
        energy = self.energy_model.total_energy_pj(sim.stats, self.gpu_config.num_sms)
        result = RunResult(
            workload=self.workload.abbr,
            config_name=config_name,
            sim=sim,
            energy_pj=energy,
        )
        if cache_key:
            self._results[cache_key] = result
        return result

    def run_config(self, config: RunConfig) -> RunResult:
        """Run the variant a :class:`RunConfig` names (the workload,
        scale, GPU and energy model must match this runner's)."""
        return self.run(config.variant, config.darsie)

    def speedup(self, config_name: str) -> float:
        return self.run("BASE").cycles / self.run(config_name).cycles

    def instruction_reduction(self, config_name: str) -> float:
        """Fraction of baseline instruction slots removed before fetch
        plus eliminated at issue."""
        base = self.run("BASE").stats.instructions_executed
        res = self.run(config_name).stats
        removed = res.instructions_skipped + res.executions_eliminated
        return removed / max(1, base)

    def energy_reduction(self, config_name: str) -> float:
        base = self.run("BASE").energy_pj
        return 1.0 - self.run(config_name).energy_pj / base

    def overhead_fraction(self, config_name: str) -> float:
        """Added-hardware energy overhead of a variant (its registry
        hook; 0.0 when the variant declares none)."""
        variant = self.registry.get(config_name)
        if variant.overhead_fraction is None:
            return 0.0
        return variant.overhead_fraction(
            self.energy_model, self.run(config_name).stats, self.gpu_config.num_sms
        )
