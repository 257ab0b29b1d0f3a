"""Cycle-level SM (streaming multiprocessor) model.

Pipeline per Section 3 / Figure 4, as explicit stage objects
(:mod:`repro.timing.stages`) over typed inter-stage buffers
(:mod:`repro.timing.buffers`):

1. **Fetch** (:class:`~repro.timing.stages.FetchStage`) — a loose-round-
   robin scheduler initiates one I-cache fetch per cycle for a warp with
   free I-buffer entries; up to ``fetch_width`` consecutive instructions
   enter the warp's two-entry I-buffer.  Fetch stalls after a control
   instruction until it resolves (no prediction).
2. **Issue** (:class:`~repro.timing.stages.IssueStage`) —
   ``num_schedulers`` GTO (greedy-then-oldest) schedulers each issue up
   to ``issue_width`` instructions from one warp per cycle, subject to a
   scoreboard over in-flight destinations.
3. **Execute** (:class:`~repro.timing.stages.ExecuteStage`, one step
   per issued instruction) — operand reads model register-file bank
   conflicts, including the extra conflicts DARSIE causes by pointing
   follower warps at the renamed register space (Section 6.1);
   instructions execute *functionally* at issue through
   :class:`repro.simt.FunctionalEngine`; a latency by functional-unit
   class (ALU/SFU/LDST + memory system) schedules writeback.
4. **Writeback** (:class:`~repro.timing.stages.WritebackStage`) —
   completed instructions release scoreboard entries and fire the
   frontend's LeaderWB hook.

:class:`SMCore` itself retains *no* per-stage logic: it owns residency
(threadblock launch/retire, barriers), the stats/memory/functional-
engine plumbing, and delegates every cycle to its
:class:`~repro.timing.stages.StagePipeline`.

Performance contract: the per-cycle and per-instruction path pays only
for modelled work, and every optimization must leave
:class:`~repro.timing.stats.SimStats` bit-identical to the
straightforward per-cycle recomputation (DESIGN.md §4d):

- One record per instruction: the
  :class:`~repro.timing.buffers.IBufferEntry` built at fetch travels
  through issue, execute (which stores its ``StepResult`` on it) and the
  writeback queue to :meth:`Frontend.on_writeback
  <repro.timing.frontend.Frontend.on_writeback>`.
- One issue step: :meth:`ExecuteStage.execute
  <repro.timing.stages.ExecuteStage.execute>` collects the operands,
  executes, picks the latency, schedules the writeback and applies the
  control flow of an issued instruction in one call.
- Frontend hooks run only where a frontend defines them: the pipeline
  binds each event hook the frontend's class defines when the SM is
  built (:class:`~repro.timing.frontend.FrontendHooks`), and never calls
  one inherited unchanged from ``Frontend``.
- State is maintained, not recomputed: decode products are memoized on
  :class:`~repro.isa.instructions.Instruction` at assembly time, the
  execute and fetch stages keep pc-keyed tables of the bank picture and
  the instruction, I-buffer occupancy is kept incrementally,
  :attr:`SMCore.busy` reads the list of live TBs, ``Program.end_pc`` is
  fixed at construction, the sync-wait population is kept as a set by
  the flag setters, GTO's awake lists stay in age order as warps wake,
  and the writeback queue is a calendar of per-cycle buckets.
- GTO issue looks only at warps woken since their probe found nothing
  to issue, and the frontends' per-cycle passes only at warps queued
  since their last visit: every event that can change whether a warp
  can issue must wake it (:meth:`WarpRuntime.wake_issue`), and every
  event that can change a pass's outcome for it must queue it too
  (:meth:`WarpRuntime.wake`).  A sleeping warp cannot issue; a clean
  warp's skip outcome cannot change.
- Energy events are counted as direct ``Counter`` increments in a fixed
  order: the first increment of each event fixes the order the energy
  model sums in, and the golden store pins that order.
- ``SMCore.tick``, ``Stage.tick``, ``ExecuteStage.execute``,
  ``StagePipeline.tick``, every hook a frontend class defines and
  ``FunctionalEngine.execute_instruction`` stay on the call path: the
  benchmark's traced run times the layers by wrapping them, and the
  watchdog tests drive the GPU through ``SMCore.tick``.

The GPU ticks every busy SM on every cycle; nothing is skipped, so a
traced run follows the same path as an untraced one.  Each tick still
counts its state changes (the *activity count*, which a stage trace
samples per stage), but no part of the simulation reads it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.simt.executor import ExecutionContext, FunctionalEngine, ThreadBlockState
from repro.timing.buffers import (  # noqa: F401  (IBufferEntry re-exported: stable import path)
    IBuffer,
    IBufferEntry,
)
from repro.timing.config import GPUConfig
from repro.timing.frontend import Frontend
from repro.timing.memory_system import MemorySystem
from repro.timing.stages import StagePipeline
from repro.timing.stats import SimStats


class WarpRuntime:
    """Per-warp pipeline state wrapped around the architectural warp.

    The owning :class:`SMCore` is a *required* constructor argument: the
    warp's I-buffer shares the pipeline's zero-cost ledger from birth,
    so stage objects can never observe a half-wired warp.
    """

    def __init__(self, warp, tb_rt: "TBRuntime", scheduler_id: int, age: int, core: "SMCore"):
        self.warp = warp
        self.tb_rt = tb_rt
        self.scheduler_id = scheduler_id
        self.age = age
        self.core = core
        self.fetch_pc: int = warp.pc
        #: decoded instructions awaiting issue (occupancy counters live
        #: on the buffer; zero-cost entries mirror into the shared ledger)
        self.ibuffer: IBuffer = IBuffer(core.pipeline.zero_cost, self)
        #: fetch stalled after a control instruction until it executes
        self.cf_stalled: bool = False
        #: blocked at a TB-wide branch barrier (DARSIE / SILICON-SYNC);
        #: write through :meth:`set_branch_sync_blocked`
        self.branch_sync_blocked: bool = False
        #: blocked by the DARSIE skip engine (leaderWB / freelist sync);
        #: write through :meth:`set_skip_blocked`
        self.skip_blocked: bool = False
        #: parked by the skip engine: the warps-waiting bitmask holds the
        #: warp without re-probing until a wake event (Section 4.3.2), so
        #: the per-cycle scan skips re-classifying it
        self.skip_parked: bool = False
        #: the skip-table entry the warp parked on, kept after a wake
        #: event clears the park bit: the skip engine's decision for it
        self.skip_entry = None
        #: one-shot: execute the instruction at this PC privately even
        #: though it is statically skippable (entry was invalidated)
        self.bypass_pcs: Set[int] = set()
        self.scoreboard: Set[Tuple[str, str]] = set()
        self.inflight: int = 0
        #: the GTO scheduler skips this warp until :meth:`wake` finds
        #: instructions in its I-buffer (it starts empty)
        self.asleep: bool = True
        #: due a visit by the frontend's per-cycle pass over woken warps
        self.woken: bool = False
        #: that pass's queue (None: the frontend makes no such pass)
        self._wake_queue = core.pipeline.wake_queue
        if self._wake_queue is not None:
            self._wake_queue.revisit(self)

    @property
    def exited(self) -> bool:
        return self.warp.exited

    def wake(self) -> None:
        """Something the frontend's pass reads for this warp has changed:
        its fetch PC or fetch readiness, its SIMD divergence, its sync
        state, or the frontend state its skip decision reads.

        Does what :meth:`wake_issue` does and queues the warp for the
        frontend's next pass.  A spurious wake costs one probe; a missing
        one breaks the bit-identical contract, which the golden store and
        fuzz oracle 4's never-sleep reference check.
        """
        if self.asleep and self.ibuffer.entries:
            self.core.pipeline.issue.wake(self)
        if not self.woken and self._wake_queue is not None:
            self._wake_queue.revisit(self)

    def wake_issue(self) -> None:
        """Something only this warp's issue outcome depends on has
        changed (its scoreboard or I-buffer): put it back in its GTO
        scheduler's awake set.  A warp with an empty I-buffer stays
        asleep; the push that fills it wakes it.  A fetch wakes this
        way: the frontend's ``on_fetch`` queues the warp for its pass
        itself when the new fetch PC can matter to it.  Writeback and
        fetch, the two per-instruction callers, inline this test.
        """
        if self.asleep and self.ibuffer.entries:
            self.core.pipeline.issue.wake(self)

    def set_skip_blocked(self, blocked: bool) -> None:
        if blocked != self.skip_blocked:
            self.skip_blocked = blocked
            self.core.pipeline.sync_blocked_changed(self)

    def set_branch_sync_blocked(self, blocked: bool) -> None:
        if blocked != self.branch_sync_blocked:
            self.branch_sync_blocked = blocked
            self.core.pipeline.sync_blocked_changed(self)

    def push_entry(self, entry: IBufferEntry) -> None:
        """Append ``entry`` keeping the occupancy counters in sync (the
        only way frontends may enqueue free entries / skip tokens).

        A free entry wakes the warp: it can stay at the head, waiting on
        a hazard, where GTO's probe counts it as a candidate.  A skip
        token does not: frontends push it in the fetch stage, and the
        decode-skip drain removes it before the next issue, so issue
        never sees it at the head and the warp's probe cannot change.
        """
        self.ibuffer.push(entry)
        if entry.free:
            self.wake_issue()

    def resync_fetch(self) -> None:
        """Re-point the frontend at the architectural PC (post-branch)."""
        self.fetch_pc = self.warp.pc
        self.cf_stalled = False
        self.wake()


class TBRuntime:
    """A threadblock resident on an SM."""

    def __init__(self, tb: ThreadBlockState, warps: List[WarpRuntime], seq: int):
        self.tb = tb
        self.warps = warps
        self.seq = seq
        self.frontend_state: Dict = {}
        self.completed = False


class SMCore:
    """One streaming multiprocessor: residency + a staged pipeline."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        ctx: ExecutionContext,
        engine: FunctionalEngine,
        frontend: Frontend,
    ):
        self.sm_id = sm_id
        self.config = config
        self.ctx = ctx
        self.engine = engine
        self.frontend = frontend
        self.stats = SimStats()
        self.memory = MemorySystem(config, self.stats)
        self.tbs: List[TBRuntime] = []
        self.warps: List[WarpRuntime] = []
        self.cycle = 0
        #: optional per-cycle event recorder (repro.timing.pipeline_trace)
        self.pipeline_trace = None
        #: optional per-cycle stage activity/occupancy recorder
        #: (repro.timing.pipeline_trace.StageOccupancyTrace)
        self.stage_trace = None
        self._tb_seq = 0
        self._warp_age = 0
        self.completed_tbs: List[TBRuntime] = []
        #: the staged pipeline (the frontend may supply a custom issue
        #: stage via ``make_issue_stage``, e.g. the DUAL-ISSUE variant)
        self.pipeline = StagePipeline(self)
        frontend.bind(self)

    # -- residency ---------------------------------------------------------

    def can_accept_tb(self, warps_needed: int) -> bool:
        live_warps = sum(1 for w in self.warps if not w.exited)
        return (
            live_warps + warps_needed <= self.config.max_warps_per_sm
            and len(self.tbs) < self.config.max_tbs_per_sm
        )

    def launch_tb(self, tb_index: int) -> TBRuntime:
        tb = ThreadBlockState(self.ctx, tb_index)
        tb_rt = TBRuntime(tb, [], self._tb_seq)
        self._tb_seq += 1
        for warp in tb.warps:
            scheduler = self._warp_age % self.config.num_schedulers
            wrt = WarpRuntime(warp, tb_rt, scheduler, self._warp_age, core=self)
            self._warp_age += 1
            tb_rt.warps.append(wrt)
            self.warps.append(wrt)
            self.pipeline.issue.add_warp(wrt)
        self.tbs.append(tb_rt)
        on_tb_launch = self.pipeline.hooks.on_tb_launch
        if on_tb_launch is not None:
            on_tb_launch(tb_rt)
        return tb_rt

    @property
    def busy(self) -> bool:
        """A threadblock is resident (``tbs`` holds only live TBs: a TB
        leaves it the moment it completes)."""
        return bool(self.tbs)

    # -- main loop ------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Advance one cycle."""
        self.cycle = cycle
        self.pipeline.tick(cycle)

    def note_activity(self) -> None:
        """Frontends call this when they mutate pipeline state outside
        the stages' own counting (zero-cost pushes, sync releases), so
        the tick's activity count includes it."""
        self.pipeline.activity += 1

    # -- retirement / barriers ---------------------------------------------

    def release_barrier(self, tb_rt: TBRuntime) -> None:
        if tb_rt.tb.release_barrier_if_ready():
            on_syncthreads = self.pipeline.hooks.on_syncthreads
            if on_syncthreads is not None:
                on_syncthreads(tb_rt)
            for w in tb_rt.warps:
                if not w.exited:
                    w.resync_fetch()

    def retire_warp(self, wrt: WarpRuntime) -> None:
        hooks = self.pipeline.hooks
        self.pipeline.sync_blocked_changed(wrt)  # exited: no longer waits
        if hooks.on_warp_exit is not None:
            hooks.on_warp_exit(wrt)
        tb_rt = wrt.tb_rt
        self.release_barrier(tb_rt)
        if all(w.exited for w in tb_rt.warps) and not tb_rt.completed:
            tb_rt.completed = True
            if hooks.on_tb_complete is not None:
                hooks.on_tb_complete(tb_rt)
            self.completed_tbs.append(tb_rt)
            self.warps = [w for w in self.warps if w.tb_rt is not tb_rt]
            self.tbs = [t for t in self.tbs if t is not tb_rt]
            self.pipeline.remove_tb(tb_rt)
