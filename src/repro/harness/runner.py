"""Workload runner: registry-declared variants over the shared substrate.

Every variant runs the same kernel on the same timing model and is
verified against the workload's numpy oracle — a run that produces wrong
results raises, so no experiment can silently report numbers from a
broken mechanism.

Which variants exist and how their frontends are built is declared once
in :data:`repro.variants.REGISTRY`; the runner resolves names against it
and is the one place a run's inputs are built: the compiler analysis,
the oracle-verified functional trace and the DAC-IDEAL profile read from
that trace, each made on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.baselines.dac import DacProfile, build_dac_profile
from repro.config import RunConfig
from repro.core import CompilerAnalysis, DarsieConfig, DarsieFrontend, analyze_program
from repro.energy import PASCAL_ENERGY_MODEL
from repro.isa.program import Program
from repro.simt import Tracer, run_functional
from repro.simt.tracer import ExecutionTrace
from repro.timing import GPUConfig, SimulationResult, simulate, small_config
from repro.variants import REGISTRY
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

    def __init__(self, workload: Workload, gpu_config: Optional[GPUConfig] = None):
        self.workload = workload
        self.gpu_config = gpu_config or small_config(num_sms=1)
        self._analysis: Optional[CompilerAnalysis] = None
        self._results: Dict[str, RunResult] = {}
        self._dac_profile: Optional[DacProfile] = None
        self._trace: Optional[ExecutionTrace] = None
        self._transformed: Dict[str, Program] = {}

    @classmethod
    def from_config(cls, config: RunConfig) -> "WorkloadRunner":
        """Build the substrate a :class:`RunConfig` describes."""
        return cls(build_workload(config.abbr, config.scale), config.gpu)

    # -- building blocks -----------------------------------------------------

    @property
    def analysis(self) -> CompilerAnalysis:
        """The compiler pass's analysis of the workload, made on first
        read: only the variants whose frontend reads it run the pass."""
        if self._analysis is None:
            self._analysis = analyze_program(self.workload.program)
        return self._analysis

    def functional_trace(self) -> ExecutionTrace:
        """Functional run with the tracer attached, verified against the
        workload's oracle (the limit studies and the DAC profile)."""
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

    def dac_profile(self) -> DacProfile:
        """The DAC-IDEAL oracle profile, read from :meth:`functional_trace`."""
        if self._dac_profile is None:
            self._dac_profile = build_dac_profile(
                self.workload.program, self.workload.launch, self.functional_trace()
            )
        return self._dac_profile

    def simulation_program(self, name: str) -> Program:
        """The program the timing simulator runs for variant ``name``.

        Variants declaring a :attr:`~repro.variants.Variant.staticlib_pass`
        (the DARM melding configurations) simulate the transformed
        program; everything else simulates the workload's program as
        written.  Transforms are cached per variant name.  Ad-hoc names
        that aren't registered (explicit-knob DARSIE ablation points)
        run the original program.
        """
        if name not in REGISTRY:
            return self.workload.program
        variant = REGISTRY.get(name)
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
        variant = REGISTRY.get(name)
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
        energy = PASCAL_ENERGY_MODEL.total_energy_pj(sim.stats, self.gpu_config.num_sms)
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
        scale and GPU must match this runner's)."""
        return self.run(config.variant, config.darsie)
