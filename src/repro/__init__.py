"""DARSIE — Dimensionality-Aware Redundant SIMT Instruction Elimination.

A full Python reproduction of Yeh, Green & Rogers, ASPLOS 2020: the
redundancy taxonomy, the static compiler pass and launch-time promotion,
the fetch-stage instruction-skipping microarchitecture with multithreaded
register renaming, the UV and DAC-IDEAL comparison points, a cycle-level
SIMT GPU substrate to run it all on, the thirteen Table 1 workloads, and
a harness regenerating every table and figure of the paper's evaluation.

Quickstart::

    from repro import assemble, analyze_program, LaunchConfig, Dim3
    from repro import GlobalMemory, run_functional, simulate, DarsieFrontend

    program = assemble(KERNEL_SOURCE)
    analysis = analyze_program(program)
    launch = LaunchConfig(grid_dim=Dim3(4, 4), block_dim=Dim3(16, 16))
    memory = GlobalMemory()
    result = simulate(program, launch, memory, params={...},
                      frontend_factory=lambda: DarsieFrontend(analysis))

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from repro.analysis import geomean, redundancy_levels, taxonomy_breakdown
from repro.baselines import DacIdealFrontend, UVFrontend, build_dac_profile
from repro.config import ConfigError, RunConfig, apply_overrides, parse_overrides
from repro.core import (
    CompilerAnalysis,
    DarsieConfig,
    DarsieFrontend,
    Marking,
    analyze_program,
    paper_area_model,
    promote_markings,
    promotion_applies,
)
from repro.energy import EnergyModel, PASCAL_ENERGY_MODEL
from repro.harness import WorkloadRunner, experiments
from repro.isa import AssemblyError, Instruction, Program, assemble
from repro.isa.encoding import EncodedProgram, decode_program, encode_program
from repro.simt import (
    Dim3,
    ExecutionTrace,
    GlobalMemory,
    KernelParams,
    LaunchConfig,
    RedundancyClass,
    SharedMemory,
    Tracer,
    run_functional,
)
from repro.staticlib import (
    ControlFlowGraph,
    LintReport,
    Liveness,
    ReachingDefinitions,
    SoundnessReport,
    audit_all,
    audit_workload,
    lint_program,
    lint_workload,
)
from repro.timing import GPU, GPUConfig, PASCAL_GTX1080TI, SimulationResult, simulate, small_config
from repro.timing.frontend import NullFrontend, SiliconSyncFrontend
from repro.variants import REGISTRY, Variant, VariantRegistry
from repro.workloads import ALL_ABBRS, ONE_D_ABBRS, TWO_D_ABBRS, build_workload

__version__ = "1.0.0"

__all__ = [
    "AssemblyError", "Instruction", "Program", "assemble",
    "EncodedProgram", "decode_program", "encode_program",
    "Dim3", "ExecutionTrace", "GlobalMemory", "KernelParams",
    "LaunchConfig", "SharedMemory", "Tracer", "run_functional",
    "CompilerAnalysis", "DarsieConfig", "DarsieFrontend", "Marking",
    "RedundancyClass", "analyze_program", "paper_area_model",
    "promote_markings", "promotion_applies",
    "GPU", "GPUConfig", "PASCAL_GTX1080TI", "SimulationResult",
    "simulate", "small_config",
    "NullFrontend", "SiliconSyncFrontend",
    "DacIdealFrontend", "UVFrontend", "build_dac_profile",
    "PASCAL_ENERGY_MODEL", "EnergyModel",
    "ConfigError", "RunConfig", "apply_overrides", "parse_overrides",
    "REGISTRY", "Variant", "VariantRegistry",
    "geomean", "redundancy_levels", "taxonomy_breakdown",
    "ALL_ABBRS", "ONE_D_ABBRS", "TWO_D_ABBRS", "build_workload",
    "WorkloadRunner", "experiments",
    "ControlFlowGraph", "ReachingDefinitions", "Liveness",
    "LintReport", "lint_program", "lint_workload",
    "SoundnessReport", "audit_workload", "audit_all",
]
