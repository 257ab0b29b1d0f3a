"""SIMT execution substrate: launch geometry, warps, memory, executor.

This subpackage provides the functional GPU model the reproduction runs
on.  It mirrors the programming model of Section 1: kernels are launched
over a grid of threadblocks (TBs); TBs are (up to) three-dimensional
arrangements of scalar threads grouped into warps by the hardware, with
the x dimension varying fastest (Section 2: "threadIds are assigned to
warps by varying the x dimension first").

Register values are modelled as 32-lane numpy vectors — exactly the
granularity at which DARSIE reasons about redundancy.
"""

from repro.simt.executor import (
    ExecutionContext,
    ExecutionError,
    FunctionalEngine,
    ThreadBlockState,
    run_functional,
)
from repro.simt.grid import Dim3, LaunchConfig, WarpLayout
from repro.simt.memory import GlobalMemory, KernelParams, SharedMemory
from repro.simt.register_file import WarpRegisterFile
from repro.simt.tracer import ExecutionTrace, RedundancyClass, TBInstance, Tracer
from repro.simt.warp import SimtStackEntry, WarpState

__all__ = [
    "Dim3",
    "LaunchConfig",
    "WarpLayout",
    "GlobalMemory",
    "KernelParams",
    "SharedMemory",
    "WarpRegisterFile",
    "SimtStackEntry",
    "WarpState",
    "ExecutionContext",
    "ExecutionError",
    "FunctionalEngine",
    "ThreadBlockState",
    "run_functional",
    "ExecutionTrace",
    "RedundancyClass",
    "TBInstance",
    "Tracer",
]
