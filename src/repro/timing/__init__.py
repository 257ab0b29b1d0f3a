"""Cycle-level timing model of the baseline GPU (Section 3, Table 2).

The model is execute-driven: instructions are fetched into per-warp
I-buffers by a loose-round-robin fetch scheduler, issued by greedy-then-
oldest (GTO) issue schedulers, executed *functionally* at issue through
:class:`repro.simt.FunctionalEngine`, and written back after a latency
determined by their functional-unit class and the memory system.

Instruction-elimination mechanisms (DARSIE, UV, DAC-IDEAL) plug in as
*frontend strategies* (:mod:`repro.timing.frontend`) so every config runs
on an identical substrate — the comparison methodology of Section 5.
"""

from repro.timing.config import GPUConfig, PASCAL_GTX1080TI, small_config
from repro.timing.core import SMCore, TBRuntime, WarpRuntime
from repro.timing.frontend import FetchAction, Frontend
from repro.timing.gpu import GPU, SimulationResult, simulate
from repro.timing.memory_system import MemorySystem, coalesce_transactions
from repro.timing.pipeline_trace import PipelineTrace
from repro.timing.stats import EnergyEvent, SimStats

__all__ = [
    "GPUConfig",
    "PASCAL_GTX1080TI",
    "small_config",
    "EnergyEvent",
    "SimStats",
    "MemorySystem",
    "coalesce_transactions",
    "FetchAction",
    "Frontend",
    "SMCore",
    "TBRuntime",
    "WarpRuntime",
    "GPU",
    "SimulationResult",
    "simulate",
    "PipelineTrace",
]
