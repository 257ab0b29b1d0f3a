"""Whole-GPU simulation: TB dispatch across SMs and the cycle loop.

Threadblocks are dispatched to SMs round-robin at kernel launch, up to
each SM's residency limits (warps and TBs, Table 2); as TBs complete,
pending TBs launch in their place — the standard GPU work distribution
the paper's baseline inherits from GPGPU-Sim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.isa.program import Program
from repro.simt.executor import ExecutionContext, FunctionalEngine
from repro.simt.grid import LaunchConfig
from repro.simt.memory import GlobalMemory, KernelParams
from repro.timing.config import GPUConfig
from repro.timing.core import SMCore, WarpRuntime
from repro.timing.frontend import Frontend
from repro.timing.stats import SimStats


class DeadlockError(RuntimeError):
    """The simulation made no forward progress within the watchdog window.

    ``dump`` is a structured, JSON-safe diagnostic: per-SM stage/buffer
    occupancy plus the control state of every live warp at the moment
    the watchdog fired (see :meth:`GPU._diagnostic_dump`), so a hung
    kernel can be triaged without re-running under a trace.
    """

    def __init__(self, message: str, dump: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.dump: Dict[str, Any] = dump if dump is not None else {}

    def to_dict(self) -> Dict[str, Any]:
        return {"message": str(self), "dump": self.dump}


@dataclass
class SimulationResult:
    """Outcome of one timing simulation."""

    frontend_name: str
    cycles: int
    stats: SimStats
    per_sm_stats: List[SimStats]
    config: GPUConfig

    @property
    def ipc(self) -> float:
        return self.stats.instructions_executed / max(1, self.cycles)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        return baseline.cycles / max(1, self.cycles)

    def to_dict(self) -> dict:
        """Plain-data form for archiving / cross-run comparison."""
        return {
            "frontend": self.frontend_name,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "config": self.config.name,
            "num_sms": self.config.num_sms,
            "stats": self.stats.to_dict(),
        }

    def to_json(self, **kwargs) -> str:
        import json

        return json.dumps(self.to_dict(), **kwargs)


class GPU:
    """A collection of SM cores sharing a kernel launch."""

    def __init__(
        self,
        program: Program,
        launch: LaunchConfig,
        memory: GlobalMemory,
        params: Optional[Dict] = None,
        config: Optional[GPUConfig] = None,
        frontend_factory: Optional[Callable[[], Frontend]] = None,
    ):
        self.config = config or GPUConfig()
        if launch.warp_size != self.config.warp_size:
            raise ValueError(
                f"launch warp size {launch.warp_size} != config {self.config.warp_size}"
            )
        self.ctx = ExecutionContext(
            program=program,
            launch=launch,
            memory=memory,
            params=KernelParams(params or {}),
        )
        self.engine = FunctionalEngine(self.ctx)
        factory = frontend_factory or Frontend
        self.sms = [
            SMCore(i, self.config, self.ctx, self.engine, factory())
            for i in range(self.config.num_sms)
        ]
        self._pending = list(range(launch.num_blocks))
        self._dispatch_rr = 0
        self.cycle = 0

    def attach_trace(self, trace) -> None:
        """Record pipeline events into ``trace``
        (:class:`repro.timing.pipeline_trace.PipelineTrace`).  The trace
        only observes: the run ticks the same cycles and counts the same
        statistics as an untraced one."""
        for sm in self.sms:
            sm.pipeline_trace = trace

    def attach_stage_trace(self, trace) -> None:
        """Record each busy SM's stage activity and buffer occupancy on
        every cycle into ``trace``
        (:class:`repro.timing.pipeline_trace.StageOccupancyTrace`).  The
        trace only observes, like :meth:`attach_trace`'s."""
        for sm in self.sms:
            sm.stage_trace = trace

    def _dispatch(self) -> None:
        warps_needed = self.ctx.launch.warps_per_block
        stalled = 0
        while self._pending and stalled < len(self.sms):
            sm = self.sms[self._dispatch_rr % len(self.sms)]
            self._dispatch_rr += 1
            if sm.can_accept_tb(warps_needed):
                sm.launch_tb(self._pending.pop(0))
                stalled = 0
            else:
                stalled += 1

    def run(self) -> SimulationResult:
        """Run the simulation to completion, ticking every busy SM on
        every cycle, as GPGPU-Sim steps its cores.

        Two detectors stop a run that makes no progress, each with a
        :class:`DeadlockError` and its dump: the cycle budget
        (``GPUConfig.max_cycles``) and the stagnation window (no
        instruction executed for ``GPUConfig.watchdog_cycles`` cycles).
        """
        self._dispatch()
        watchdog_window = self.config.watchdog_cycles
        watchdog_executed = -1
        watchdog_cycle = 0
        # The SMs with a resident TB: it changes only when a TB completes
        # (and dispatch runs), so it is refreshed only then.
        busy = [sm for sm in self.sms if sm.busy]
        while busy or self._pending:
            completed = False
            for sm in busy:
                sm.tick(self.cycle)
                if sm.completed_tbs:
                    completed = True
            if completed:
                for sm in busy:
                    sm.completed_tbs.clear()
                self._dispatch()
                busy = [sm for sm in self.sms if sm.busy]
            self.cycle += 1
            if self.cycle >= self.config.max_cycles:
                raise DeadlockError(
                    f"exceeded max_cycles={self.config.max_cycles}",
                    dump=self._diagnostic_dump("max_cycles"),
                )
            executed = self.engine.instructions_executed
            if executed != watchdog_executed:
                watchdog_executed = executed
                watchdog_cycle = self.cycle
            elif self.cycle - watchdog_cycle > watchdog_window:
                raise DeadlockError(
                    f"no instruction executed for {watchdog_window} cycles "
                    f"at cycle {self.cycle}; blocked warps: "
                    + ", ".join(
                        f"sm{sm.sm_id}/w{w.age}@{w.fetch_pc:#x}{_blocked_flags(w)}"
                        for sm in self.sms
                        for w in sm.warps
                        if not w.exited
                    ),
                    dump=self._diagnostic_dump("no_instruction_executed"),
                )
        return self._finalize()

    def _finalize(self) -> SimulationResult:
        merged = SimStats()
        for sm in self.sms:
            sm.stats.cycles = self.cycle
            merged.merge(sm.stats)
        merged.cycles = self.cycle
        return SimulationResult(
            frontend_name=self.sms[0].frontend.name if self.sms else "BASE",
            cycles=self.cycle,
            stats=merged,
            per_sm_stats=[sm.stats for sm in self.sms],
            config=self.config,
        )

    # -- watchdog diagnostics ----------------------------------------------

    def _diagnostic_dump(self, reason: str) -> Dict[str, Any]:
        """JSON-safe per-stage/per-warp state for :class:`DeadlockError`."""
        sms = []
        for sm in self.sms:
            pipeline = sm.pipeline
            warps = []
            for w in sm.warps:
                if w.exited:
                    continue
                warps.append(
                    {
                        "age": w.age,
                        "warp_id": w.warp.warp_id,
                        "tb_index": w.warp.tb_index,
                        "scheduler": w.scheduler_id,
                        "pc": w.warp.pc,
                        "fetch_pc": w.fetch_pc,
                        "flags": _blocked_flags(w),
                        "ibuffer": w.ibuffer.buffered,
                        "ibuffer_zero_cost": w.ibuffer.zero_cost,
                        "inflight": w.inflight,
                        "scoreboard": len(w.scoreboard),
                    }
                )
            sms.append(
                {
                    "sm": sm.sm_id,
                    "busy": sm.busy,
                    "stages": [stage.name for stage in pipeline.stages],
                    "occupancy": pipeline.occupancy(),
                    "wbq_depth": len(pipeline.wbq),
                    "wbq_next_ready": pipeline.wbq.next_ready(),
                    "live_tbs": len(sm.tbs),
                    "warps": warps,
                }
            )
        return {
            "reason": reason,
            "cycle": self.cycle,
            "instructions_executed": self.engine.instructions_executed,
            "pending_tbs": len(self._pending),
            "frontend": self.sms[0].frontend.name if self.sms else "BASE",
            "sms": sms,
        }


def _blocked_flags(w: WarpRuntime) -> str:
    """What holds a warp: ``S`` the skip engine, ``B`` a branch barrier,
    ``C`` a control instruction in flight, ``Y`` bar.sync."""
    return (
        ("S" if w.skip_blocked else "")
        + ("B" if w.branch_sync_blocked else "")
        + ("C" if w.cf_stalled else "")
        + ("Y" if w.warp.at_barrier else "")
    )


def simulate(
    program: Program,
    launch: LaunchConfig,
    memory: GlobalMemory,
    params: Optional[Dict] = None,
    config: Optional[GPUConfig] = None,
    frontend_factory: Optional[Callable[[], Frontend]] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`GPU` and run it to completion."""
    gpu = GPU(
        program=program,
        launch=launch,
        memory=memory,
        params=params,
        config=config,
        frontend_factory=frontend_factory,
    )
    return gpu.run()
