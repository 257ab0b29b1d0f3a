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
from repro.timing.core import SMCore
from repro.timing.frontend import Frontend, NullFrontend
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
            "counters": {
                "fetched": self.stats.instructions_fetched,
                "decoded": self.stats.instructions_decoded,
                "issued": self.stats.instructions_issued,
                "executed": self.stats.instructions_executed,
                "skipped": self.stats.instructions_skipped,
                "eliminated": self.stats.executions_eliminated,
                "leaders_elected": self.stats.leaders_elected,
                "follower_skips": self.stats.follower_skips,
                "branch_barriers": self.stats.branch_barriers,
                "sync_wait_cycles": self.stats.sync_wait_cycles,
                "freelist_syncs": self.stats.freelist_syncs,
                "load_entries_invalidated": self.stats.load_entries_invalidated,
                "warps_left_majority": self.stats.warps_left_majority,
                "l1_hits": self.stats.l1_hits,
                "l1_misses": self.stats.l1_misses,
            },
            "skipped_by_class": dict(self.stats.skipped_by_class),
            "eliminated_by_class": dict(self.stats.eliminated_by_class),
            "energy_events": {e.value: n for e, n in self.stats.energy_events.items()},
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
        factory = frontend_factory or NullFrontend
        self.sms = [
            SMCore(i, self.config, self.ctx, self.engine, factory())
            for i in range(self.config.num_sms)
        ]
        self._pending = list(range(launch.num_blocks))
        self._dispatch_rr = 0
        self.cycle = 0

    def attach_trace(self, trace) -> None:
        """Record per-cycle pipeline events into ``trace``
        (:class:`repro.timing.pipeline_trace.PipelineTrace`)."""
        for sm in self.sms:
            sm.pipeline_trace = trace

    def attach_stage_trace(self, trace) -> None:
        """Record per-cycle stage activity/occupancy into ``trace``
        (:class:`repro.timing.pipeline_trace.StageOccupancyTrace`)."""
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
        """Run the simulation to completion."""
        self._dispatch()
        # Event-driven skipping: when a whole tick produced zero state
        # changes, the next tick would repeat it exactly — jump straight
        # to the earliest known-future event (writeback heap head /
        # timed frontend release) and replay the per-idle-cycle
        # accounting in closed form.  Disabled under a pipeline trace,
        # which records blocked warps every cycle.
        skip_enabled = self.config.event_skip and all(
            sm.pipeline_trace is None and sm.stage_trace is None
            for sm in self.sms
        )
        watchdog_window = self.config.watchdog_cycles
        watchdog_executed = -1
        watchdog_cycle = 0
        idle_ticks = 0
        while self._pending or any(sm.busy for sm in self.sms):
            activity = 0
            for sm in self.sms:
                if sm.busy:
                    activity += sm.tick(self.cycle)
            if any(sm.completed_tbs for sm in self.sms):
                for sm in self.sms:
                    sm.completed_tbs.clear()
                self._dispatch()
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
                        f"sm{sm.sm_id}/w{w.age}@{w.fetch_pc:#x}"
                        f"{'S' if w.skip_blocked else ''}"
                        f"{'B' if w.branch_sync_blocked else ''}"
                        f"{'C' if w.cf_stalled else ''}"
                        f"{'Y' if w.warp.at_barrier else ''}"
                        for sm in self.sms
                        for w in sm.warps
                        if not w.exited
                    ),
                    dump=self._diagnostic_dump("no_instruction_executed"),
                )
            if activity == 0:
                target: Optional[int] = None
                for sm in self.sms:
                    if not sm.busy:
                        continue
                    wake = sm.wake_cycle()
                    if wake is None:
                        continue
                    if target is None or wake < target:
                        target = wake
                if target is None:
                    # Nothing in flight and no timed release pending on
                    # any SM: this tick repeats forever.  Raise promptly
                    # instead of spinning out the full watchdog window.
                    idle_ticks += 1
                    if idle_ticks >= self.config.watchdog_idle_ticks:
                        raise DeadlockError(
                            f"no forward progress and no wake event for "
                            f"{idle_ticks} consecutive idle ticks "
                            f"at cycle {self.cycle}",
                            dump=self._diagnostic_dump("idle_no_wake"),
                        )
                elif skip_enabled:
                    idle_ticks = 0
                    # Never jump past the watchdog or max_cycles limits,
                    # so a genuinely stuck simulation still raises at the
                    # same cycle it would have when stepping.
                    target = min(
                        target,
                        watchdog_cycle + watchdog_window,
                        self.config.max_cycles - 1,
                    )
                    if target > self.cycle:
                        delta = target - self.cycle
                        for sm in self.sms:
                            if sm.busy:
                                sm.advance_idle(delta)
                        self.cycle = target
                else:
                    idle_ticks = 0
            else:
                idle_ticks = 0
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
                        "flags": (
                            ("S" if w.skip_blocked else "")
                            + ("B" if w.branch_sync_blocked else "")
                            + ("C" if w.cf_stalled else "")
                            + ("Y" if w.warp.at_barrier else "")
                        ),
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
                    "next_wake": sm.wake_cycle() if sm.busy else None,
                    "stages": [stage.name for stage in pipeline.stages],
                    "occupancy": pipeline.occupancy(),
                    "wbq_depth": len(pipeline.wbq),
                    "wbq_next_ready": pipeline.wbq.next_ready(),
                    "live_tbs": sum(1 for tb in sm.tbs if not tb.completed),
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
