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
from typing import Callable, Dict, Optional, Tuple

from repro.baselines.dac import DacProfile, build_dac_profile
from repro.config import refined_knobs
from repro.core import CompilerAnalysis, DarsieConfig, analyze_program
from repro.energy import PASCAL_ENERGY_MODEL
from repro.isa.program import Program
from repro.simt import Tracer, run_functional
from repro.simt.tracer import ExecutionTrace
from repro.timing import GPUConfig, SimulationResult, simulate, small_config
from repro.variants import FUNCTIONAL, REGISTRY
from repro.workloads import Workload


class VerificationError(AssertionError):
    """A timing run produced results that disagree with the oracle."""


@dataclass
class RunResult:
    """What one timing run measured; which run it was is the caller's
    (a sweep's :attr:`RunOutcome.spec <repro.harness.parallel.RunOutcome.spec>`)."""

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
        self._results: Dict[Tuple[str, Optional[DarsieConfig]], RunResult] = {}
        self._dac_profile: Optional[DacProfile] = None
        self._trace: Optional[ExecutionTrace] = None
        self._transformed: Dict[str, Program] = {}

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
        program, made once per variant; every other variant, and the
        :data:`~repro.variants.FUNCTIONAL` run, the program as written.
        """
        rewrite = None if name == FUNCTIONAL else REGISTRY.get(name).staticlib_pass
        if rewrite is None:
            return self.workload.program
        if name not in self._transformed:
            self._transformed[name] = rewrite(self.workload.program)
        return self._transformed[name]

    def frontend_factory(
        self, name: str, darsie: Optional[DarsieConfig] = None
    ) -> Optional[Callable]:
        """Variant ``name``'s frontend factory, its DARSIE preset refined
        by the knobs ``darsie`` (see :func:`repro.config.refined_knobs`)."""
        variant = REGISTRY.get(name)
        return variant.make_frontend(self, refined_knobs(name, darsie) or variant.darsie_defaults)

    # -- running -----------------------------------------------------------------

    def run(self, name: str, darsie: Optional[DarsieConfig] = None) -> RunResult:
        """Run variant ``name``, its DARSIE preset refined by ``darsie``;
        memoized, so knobs equal to the preset reuse the preset's run."""
        key = (name, refined_knobs(name, darsie))
        if key in self._results:
            return self._results[key]
        factory = self.frontend_factory(*key)
        mem, params = self.workload.fresh()
        sim = simulate(
            self.simulation_program(name),
            self.workload.launch,
            mem,
            params=params,
            config=self.gpu_config,
            frontend_factory=factory,
        )
        if not self.workload.verify(mem, params):
            raise VerificationError(
                f"{self.workload.abbr} under {name}: output mismatch vs oracle"
            )
        energy = PASCAL_ENERGY_MODEL.total_energy_pj(sim.stats, self.gpu_config.num_sms)
        result = self._results[key] = RunResult(sim=sim, energy_pj=energy)
        return result
