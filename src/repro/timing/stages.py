"""Explicit stage objects of the SM pipeline (Section 3 / Figure 4).

The monolithic ``SMCore`` is split into six stage classes, each with a
``tick(cycle) -> activity`` contract, communicating only through the
typed buffers in :mod:`repro.timing.buffers`:

- :class:`WritebackStage` — pops due instructions off the shared
  :class:`~repro.timing.buffers.WritebackQueue`, releases scoreboard
  entries and fires the frontend's ``on_writeback`` (LeaderWB) hook.
- :class:`DecodeSkipStage` — the zero-cost, in-order drain of eliminated
  instructions (DARSIE skip tokens, DAC-IDEAL free entries) at the head
  of each warp's I-buffer.
- :class:`IssueStage` — the GTO / loose-round-robin warp schedulers.
  GTO probes only awake warps: a warp whose probe issued nothing sleeps
  until :meth:`~repro.timing.core.WarpRuntime.wake`.  A selected
  instruction travels through operand collection into execute *in the
  same cycle* (back-to-back pipeline with full bypass — exactly the
  timing the monolithic core modelled).
- :class:`OperandCollectStage` — register-file reads and bank-conflict
  accounting, including DARSIE's rename-space conflicts (Section 6.1).
- :class:`ExecuteStage` — functional execution, latency modelling and
  post-execute control flow (branch sync, barriers, warp retirement).
- :class:`FetchStage` — the frontend's per-cycle hook (DARSIE's skip
  engine runs "in parallel with the fetch scheduler" over the woken
  warps), the loose round-robin fetch scheduler and the I-cache/decode
  path.

:class:`StagePipeline` assembles the stages, owns the shared buffers and
the per-tick activity counter, and preserves the monolith's exact intra-
cycle order: writeback -> decode-skip -> issue -> fetch -> wait
accounting.  A frontend may swap in an alternative issue stage via
:meth:`repro.timing.frontend.Frontend.make_issue_stage` (the
``DUAL-ISSUE`` variant swaps in :class:`DualIssueStage`).

Every stat is counted by exactly one stage, in the same per-cycle order
the monolith used, so the refactor is bit-identical under the golden
contract (``tests/timing/data/golden_tiny*.json``) and the event-skip
equivalence tests.  Stages wake the warps they change: writeback (the
scoreboard release), the decode-skip drain, fetch (I-buffer push and
fetch-PC move) and execute (the issuing warp).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.isa.instructions import INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.operands import MemSpace
from repro.timing.buffers import (
    IBufferEntry,
    IssueSlot,
    WakeQueue,
    WritebackQueue,
    ZeroCostLedger,
)
from repro.timing.frontend import FetchAction
from repro.timing.stats import EnergyEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.simt.executor import StepResult
    from repro.timing.core import SMCore, TBRuntime, WarpRuntime


class Stage:
    """One pipeline stage bound to a :class:`StagePipeline`.

    ``tick`` advances the stage one cycle and returns the number of
    state changes it (and any frontend hooks it invoked) produced; all
    activity flows through the pipeline's single accumulator so the
    event-skip contract sees one consistent count.
    """

    name = "stage"

    def __init__(self, pipeline: "StagePipeline") -> None:
        self.pipeline = pipeline
        self.core: "SMCore" = pipeline.core

    def tick(self, cycle: int) -> int:
        before = self.pipeline._activity
        self.run(cycle)
        return self.pipeline._activity - before

    def run(self, cycle: int) -> None:  # pragma: no cover - overridden
        pass


class WritebackStage(Stage):
    """Retire due instructions: scoreboard release + LeaderWB hook."""

    name = "writeback"

    def run(self, cycle: int) -> None:
        core = self.core
        wbq = self.pipeline.wbq
        while True:
            item = wbq.pop_ready(cycle)
            if item is None:
                break
            _ready, _seq, wrt, inst, meta = item
            self.pipeline.note()
            wrt.inflight -= 1
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "W", inst.pc,
                )
            dests = meta.get("dests", ())
            for key in dests:
                wrt.scoreboard.discard(key)
            if dests:
                core.stats.energy_events[EnergyEvent.RF_WRITE] += 1
            core.frontend.on_writeback(wrt, inst, meta)
            wrt.wake()


class DecodeSkipStage(Stage):
    """Zero-cost, in-order drain of eliminated instructions.

    DARSIE skip tokens only advance the architectural PC (the leader
    executed the instruction; the follower shares its value through
    renaming).  DAC-IDEAL free entries execute functionally — the
    idealized affine stream — without pipeline cost.
    """

    name = "decode-skip"

    def run(self, cycle: int) -> None:
        if self.pipeline.zero_cost.total == 0:
            return
        core = self.core
        for wrt in core.warps:
            ibuf = wrt.ibuffer
            if ibuf.zero_cost == 0:
                continue
            entries = ibuf.entries
            drained = False
            while entries and (entries[0].free or entries[0].skip_token):
                entry = entries[0]
                if entry.skip_token:
                    ibuf.pop()
                    self.pipeline.note()
                    drained = True
                    assert wrt.warp.pc == entry.inst.pc, (
                        f"skip token out of order: arch pc {wrt.warp.pc:#x}, "
                        f"token pc {entry.inst.pc:#x}"
                    )
                    wrt.warp.pc += INSTRUCTION_BYTES
                    wrt.warp.maybe_reconverge()
                    continue
                if _hazard(wrt, entry.inst):
                    break
                ibuf.pop()
                self.pipeline.note()
                drained = True
                core.engine.execute_instruction(wrt.tb_rt.tb, wrt.warp, entry.inst)
                core.stats.instructions_skipped += 1
            if drained:
                wrt.wake()


def _hazard(wrt: "WarpRuntime", inst: Instruction) -> bool:
    sb = wrt.scoreboard
    return bool(sb) and not sb.isdisjoint(inst.hazard_keys)


#: GTO's oldest-first order (ages are assigned in launch order)
_BY_AGE = attrgetter("age")


class IssueStage(Stage):
    """The per-SM warp schedulers (GTO per Table 2, or loose RR).

    Owns the per-scheduler warp lists (in age order), the greedy
    pointers and the round-robin cursors; selected instructions are
    handed to operand collection and execute as an
    :class:`~repro.timing.buffers.IssueSlot` within the same cycle.

    GTO splits wake-up from select: a warp whose probe found nothing to
    issue goes to sleep, and only :meth:`WarpRuntime.wake
    <repro.timing.core.WarpRuntime.wake>` (writeback, I-buffer push or
    drain, fetch redirect, sync release, the warp's own execute) puts it
    back in its scheduler's ``awake`` set.  Each cycle probes the awake
    warps, greedy first and then by age.  Sleeping warps with a
    non-empty I-buffer stay in ``stalled``: they are candidates that
    cannot issue, which keeps the greedy pointer's reset exact.  LRR
    still walks every warp (its rotation counts candidates).
    """

    name = "issue"
    #: distinct warps each scheduler may issue from per cycle
    warps_per_cycle = 1

    def __init__(self, pipeline: "StagePipeline") -> None:
        super().__init__(pipeline)
        config = self.core.config
        self._greedy: Dict[int, Optional["WarpRuntime"]] = {
            s: None for s in range(config.num_schedulers)
        }
        self._issue_rr: Dict[int, int] = {s: 0 for s in range(config.num_schedulers)}
        #: per-scheduler warp lists in age order (mirrors ``core.warps``)
        self.sched_warps: List[List["WarpRuntime"]] = [
            [] for _ in range(config.num_schedulers)
        ]
        #: per-scheduler warps GTO probes this cycle
        self.awake: List[Set["WarpRuntime"]] = [
            set() for _ in range(config.num_schedulers)
        ]
        #: per-scheduler sleeping warps with instructions buffered
        self.stalled: List[Set["WarpRuntime"]] = [
            set() for _ in range(config.num_schedulers)
        ]

    # -- residency bookkeeping (driven by the core) -------------------------

    def add_warp(self, wrt: "WarpRuntime") -> None:
        self.sched_warps[wrt.scheduler_id].append(wrt)
        self.awake[wrt.scheduler_id].add(wrt)

    def remove_tb(self, tb_rt: "TBRuntime") -> None:
        self.sched_warps = [
            [w for w in lst if w.tb_rt is not tb_rt] for lst in self.sched_warps
        ]
        for w in tb_rt.warps:
            self.awake[w.scheduler_id].discard(w)
            self.stalled[w.scheduler_id].discard(w)

    def wake(self, wrt: "WarpRuntime") -> None:
        wrt.asleep = False
        self.stalled[wrt.scheduler_id].discard(wrt)
        self.awake[wrt.scheduler_id].add(wrt)

    def advance_idle(self, delta: int) -> None:
        """Replay ``delta`` skipped idle cycles: each LRR scheduler that
        had issue candidates advances its rotation per cycle."""
        if self.core.config.scheduler_policy == "lrr":
            for sched, swarps in enumerate(self.sched_warps):
                if any(not w.warp.exited and w.ibuffer for w in swarps):
                    self._issue_rr[sched] += delta

    # -- the per-cycle schedulers -------------------------------------------

    def run(self, cycle: int) -> None:
        if self.core.config.scheduler_policy == "lrr":
            self._run_lrr(cycle)
        else:
            self._run_gto(cycle)

    def _run_gto(self, cycle: int) -> None:
        # Greedy-then-oldest (Table 2's GTO) over the awake warps.  A
        # sleeping warp would fail its probe, so skipping it changes
        # nothing but whether a candidate existed, which ``stalled``
        # answers.  The awake set is re-read per slot: an issue can wake
        # other warps (barrier or branch-sync release).
        for sched, awake in enumerate(self.awake):
            stalled = self.stalled[sched]
            issued: List["WarpRuntime"] = []
            for _slot in range(self.warps_per_cycle):
                issued_from: Optional["WarpRuntime"] = None
                had_candidate = bool(stalled)
                if awake:
                    order = sorted(awake, key=_BY_AGE)
                    greedy = self._greedy[sched]
                    if greedy is not None and greedy in awake and order[0] is not greedy:
                        order.remove(greedy)
                        order.insert(0, greedy)
                    for wrt in order:
                        if wrt in issued:
                            continue
                        if wrt.warp.exited or not wrt.ibuffer:
                            wrt.asleep = True
                            awake.discard(wrt)
                            continue
                        had_candidate = True
                        if self._issue_from_warp(cycle, wrt):
                            issued_from = wrt
                            break
                        wrt.asleep = True
                        awake.discard(wrt)
                        stalled.add(wrt)
                if had_candidate:
                    self._greedy[sched] = issued_from
                if issued_from is None:
                    break
                issued.append(issued_from)

    def _run_lrr(self, cycle: int) -> None:
        # Loose round-robin: rotate priority each cycle.
        for sched, swarps in enumerate(self.sched_warps):
            candidates = [w for w in swarps if not w.warp.exited and w.ibuffer]
            if not candidates:
                continue
            n = len(candidates)
            rot = self._issue_rr[sched] % n
            self._issue_rr[sched] += 1
            issued: List["WarpRuntime"] = []
            for _slot in range(self.warps_per_cycle):
                issued_from: Optional["WarpRuntime"] = None
                for i in range(n):
                    wrt = candidates[(rot + i) % n]
                    if wrt in issued:
                        continue
                    if self._issue_from_warp(cycle, wrt):
                        issued_from = wrt
                        break
                self._greedy[sched] = issued_from
                if issued_from is None:
                    break
                issued.append(issued_from)

    def _issue_from_warp(self, cycle: int, wrt: "WarpRuntime") -> int:
        issued = 0
        core = self.core
        pipeline = self.pipeline
        stats = core.stats
        ibuf = wrt.ibuffer
        entries = ibuf.entries
        issue_width = core.config.issue_width
        while issued < issue_width and entries:
            entry = entries[0]
            if entry.free or entry.skip_token:
                break  # handled by the decode-skip drain
            if wrt.warp.at_barrier or wrt.branch_sync_blocked:
                break
            if _hazard(wrt, entry.inst):
                break
            ibuf.pop()
            pipeline.note()
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "I", entry.inst.pc,
                )
            stats.instructions_issued += 1
            stats.energy_events[EnergyEvent.ISSUE] += 1
            slot = IssueSlot(warp=wrt, entry=entry, cycle=cycle)
            pipeline.operand_collect.collect(slot)
            pipeline.execute.execute(slot)
            issued += 1
            if entry.inst.opcode in (Opcode.BRA, Opcode.EXIT, Opcode.BAR):
                break
        return issued


class DualIssueStage(IssueStage):
    """An alternative issue stage: each scheduler may issue from up to
    two *distinct* warps per cycle (the ``DUAL-ISSUE`` variant).

    Everything else — GTO/LRR selection order, per-warp ``issue_width``,
    scoreboarding, control-flow issue breaks — is inherited unchanged,
    which is exactly the point of the stage seam: one class attribute is
    the whole microarchitectural change.
    """

    name = "dual-issue"
    warps_per_cycle = 2


class OperandCollectStage(Stage):
    """Register-file operand reads and bank-conflict accounting."""

    name = "operand-collect"

    def collect(self, slot: IssueSlot) -> None:
        stats = self.core.stats
        inst = slot.entry.inst
        stats.energy_events[EnergyEvent.RF_READ] += inst.rf_read_count
        stats.rf_bank_conflicts += self._bank_conflicts(inst, slot.entry)

    def _bank_conflicts(self, inst: Instruction, entry: IBufferEntry) -> int:
        """Same-cycle operand bank collisions (coarse operand-collector
        model: each distinct source register occupies one bank read)."""
        conflicts, banks = inst.bank_info(self.core.config.rf_banks)
        if entry.overrides:
            # Renamed operands live in the strided rename space; reads
            # from it collide with the warp's own operand reads
            # (Section 6.1's DARSIE-induced bank conflicts).
            rename_banks = entry.overrides.get("banks", ())
            collide = sum(1 for b in rename_banks if b in banks)
            conflicts += collide
            self.core.stats.darsie_bank_conflicts += collide
        return conflicts


class ExecuteStage(Stage):
    """Functional execution at issue, latency modelling, post-execute
    control flow, and writeback scheduling."""

    name = "execute"

    def execute(self, slot: IssueSlot) -> None:
        core = self.core
        stats = core.stats
        wrt = slot.warp
        entry = slot.entry
        inst = entry.inst
        cycle = slot.cycle

        eliminate_kind = core.frontend.eliminate_at_issue(wrt, inst)
        overrides = entry.overrides or {}
        depth_before = len(wrt.warp.stack)
        result = core.engine.execute_instruction(
            wrt.tb_rt.tb,
            wrt.warp,
            inst,
            reg_overrides=overrides.get("regs"),
            pred_overrides=overrides.get("preds"),
        )
        stats.instructions_executed += 1
        if depth_before > 1:
            stats.divergence_serialized_instructions += 1
        if inst.is_branch and len(wrt.warp.stack) > depth_before:
            stats.divergent_branches += 1

        if eliminate_kind is not None:
            stats.executions_eliminated += 1
            stats.eliminated_by_class[eliminate_kind] += 1
            ready = cycle + 1
        else:
            ready = self._latency(cycle, inst, result)

        dests = inst.sb_dests
        meta = {"dests": dests, "is_leader": entry.is_leader, "result": result}
        for key in dests:
            wrt.scoreboard.add(key)
        if dests or entry.is_leader:
            self.pipeline.wbq.schedule(ready, wrt, inst, meta)

        self._post_execute(cycle, wrt, inst, result)

    def _latency(self, cycle: int, inst: Instruction, result: "StepResult") -> int:
        core = self.core
        cfg = core.config
        if inst.is_memory:
            assert inst.mem is not None
            addresses = result.mem_addresses
            if addresses is None:
                return cycle + 1
            mask = result.exec_mask
            if inst.mem.space is MemSpace.SHARED:
                return core.memory.shared_access(cycle, addresses, mask)
            return core.memory.global_access(cycle, addresses, mask, inst.is_store)
        if inst.uses_sfu:
            core.stats.energy_events[EnergyEvent.SFU_OP] += 1
            return cycle + cfg.sfu_latency
        if inst.opcode in (Opcode.BRA, Opcode.EXIT, Opcode.BAR, Opcode.NOP):
            return cycle + 1
        core.stats.energy_events[EnergyEvent.ALU_OP] += 1
        return cycle + cfg.alu_latency

    def _post_execute(
        self, cycle: int, wrt: "WarpRuntime", inst: Instruction, result: "StepResult"
    ) -> None:
        core = self.core
        wrt.wake()
        core.frontend.on_executed(wrt, inst, result)

        if inst.is_store:
            core.frontend.on_store(wrt.tb_rt)
        if inst.is_atomic and inst.mem.space is MemSpace.GLOBAL:
            core.frontend.on_global_communication()

        if inst.is_branch:
            if core.frontend.blocks_after_branch(wrt, inst):
                wrt.set_branch_sync_blocked(True)
            else:
                wrt.resync_fetch()
            return
        if inst.is_barrier:
            core.release_barrier(wrt.tb_rt)
            return
        if inst.is_exit:
            if result.retired:
                core.retire_warp(wrt)
            else:
                wrt.resync_fetch()
            return
        if wrt.warp.pc != inst.pc + INSTRUCTION_BYTES:
            # A reconvergence pop switched the warp to another divergent
            # path (non-sequential PC without a branch): the straight-line
            # prefetch past the reconvergence point is wrong-path.
            wrt.ibuffer.clear()
            wrt.resync_fetch()


class FetchStage(Stage):
    """The fetch scheduler and I-cache/decode path.

    Runs the frontend's per-cycle hook first — DARSIE's skip engine
    works "in parallel with the fetch scheduler" (Section 4.3.2) — then
    a loose round-robin over warps with free I-buffer slots, bringing in
    up to ``fetch_width`` consecutive instructions per initiated fetch.
    """

    name = "fetch"

    def __init__(self, pipeline: "StagePipeline") -> None:
        super().__init__(pipeline)
        self._fetch_rr = 0

    def run(self, cycle: int) -> None:
        core = self.core
        core.frontend.fetch_cycle(cycle)
        warps = core.warps
        n = len(warps)
        if n == 0:
            return
        end_pc = core.ctx.program.end_pc
        capacity = core.config.ibuffer_entries
        frontend = core.frontend
        for _initiated in range(core.config.fetch_warps_per_cycle):
            chosen = None
            for i in range(n):
                wrt = warps[(self._fetch_rr + i) % n]
                if not wrt.fetch_ready() or wrt.skip_blocked:
                    continue
                if wrt.ibuffer.buffered >= capacity:
                    continue
                if wrt.fetch_pc >= end_pc:
                    continue
                action = frontend.filter_fetch(wrt, wrt.fetch_pc)
                if action in (FetchAction.HANDLED, FetchAction.WAIT):
                    continue
                chosen = (wrt, action)
                self._fetch_rr = (self._fetch_rr + i + 1) % n
                break
            if chosen is None:
                return
            wrt, action = chosen
            self.pipeline.note()
            core.stats.energy_events[EnergyEvent.ICACHE_FETCH] += 1
            self._fetch_into(cycle, wrt, action)

    def _fetch_into(
        self, cycle: int, wrt: "WarpRuntime", first_action: FetchAction
    ) -> None:
        core = self.core
        fetched = 0
        action = first_action
        stats = core.stats
        ibuf = wrt.ibuffer
        while fetched < core.config.fetch_width and ibuf.buffered < core.config.ibuffer_entries:
            if action in (FetchAction.HANDLED, FetchAction.WAIT):
                break
            inst = core.ctx.program.at(wrt.fetch_pc)
            is_leader = action is FetchAction.FETCH_LEADER
            overrides = core.frontend.on_fetch(wrt, inst, is_leader)
            ibuf.push(IBufferEntry(inst=inst, is_leader=is_leader, overrides=overrides))
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "F", inst.pc,
                )
            stats.instructions_fetched += 1
            stats.instructions_decoded += 1
            stats.energy_events[EnergyEvent.DECODE] += 1
            wrt.bypass_pcs.discard(wrt.fetch_pc)
            wrt.fetch_pc += INSTRUCTION_BYTES
            fetched += 1
            if inst.opcode in (Opcode.BRA, Opcode.EXIT, Opcode.BAR):
                wrt.cf_stalled = True
                break
            if wrt.fetch_pc >= core.ctx.program.end_pc:
                break
            action = core.frontend.filter_fetch(wrt, wrt.fetch_pc)
        wrt.wake()


class StagePipeline:
    """The assembled SM pipeline: stages, shared buffers, activity.

    Intra-cycle order (identical to the historical monolith, and pinned
    by the golden contract): writeback -> decode-skip -> issue (which
    drives operand-collect and execute combinationally) -> fetch (which
    runs the frontend's per-cycle hook first) -> wait accounting, which
    reads the ``sync_blocked`` set instead of walking every warp.
    """

    def __init__(self, core: "SMCore") -> None:
        self.core = core
        self.zero_cost = ZeroCostLedger()
        self.wbq = WritebackQueue()
        #: warps due a visit by the frontend's per-cycle pass; a frontend
        #: that makes one installs the queue at bind
        self.wake_queue: Optional[WakeQueue] = None
        #: live warps blocked on DARSIE or branch synchronization (the
        #: ``sync_wait_cycles`` population)
        self.sync_blocked: Set["WarpRuntime"] = set()
        #: state changes observed during the current tick
        self._activity = 0
        self.writeback = WritebackStage(self)
        self.decode_skip = DecodeSkipStage(self)
        issue = core.frontend.make_issue_stage(self)
        self.issue: IssueStage = issue if issue is not None else IssueStage(self)
        self.operand_collect = OperandCollectStage(self)
        self.execute = ExecuteStage(self)
        self.fetch = FetchStage(self)
        #: the ticked stages, in intra-cycle order (operand-collect and
        #: execute are driven combinationally by issue, not ticked)
        self.stages = (self.writeback, self.decode_skip, self.issue, self.fetch)

    def note(self) -> None:
        """Record one state change (stages and frontends both call this)."""
        self._activity += 1

    def sync_blocked_changed(self, wrt: "WarpRuntime") -> None:
        """Re-file ``wrt`` after a sync flag write or its exit."""
        if (wrt.skip_blocked or wrt.branch_sync_blocked) and not wrt.warp.exited:
            self.sync_blocked.add(wrt)
        else:
            self.sync_blocked.discard(wrt)

    def tick(self, cycle: int) -> int:
        """Advance every stage one cycle; returns the activity count (0
        means the cycle was provably idle and the next would repeat it
        exactly — the basis for event-driven skipping)."""
        self._activity = 0
        trace = self.core.stage_trace
        if trace is None:
            self.writeback.tick(cycle)
            self.decode_skip.tick(cycle)
            self.issue.tick(cycle)
            self.fetch.tick(cycle)
            self._account_waits(cycle)
            return self._activity
        stage_activity = {stage.name: stage.tick(cycle) for stage in self.stages}
        self._account_waits(cycle)
        trace.sample(cycle, self.core.sm_id, stage_activity, self.occupancy())
        return self._activity

    def wake_cycle(self) -> Optional[int]:
        """Earliest future cycle at which anything can happen on this SM
        while it is otherwise idle, or None if no such event is known."""
        wake = self.wbq.next_ready()
        fw = self.core.frontend.next_wake(self.core.cycle)
        if fw is not None and (wake is None or fw < wake):
            wake = fw
        return wake

    def advance_idle(self, delta: int) -> None:
        """Account for ``delta`` skipped idle cycles.

        An idle cycle still (a) accrues one ``sync_wait_cycles`` per
        blocked live warp and (b) advances each LRR scheduler that had
        issue candidates; both are replayed here in closed form.
        """
        self.core.stats.sync_wait_cycles += len(self.sync_blocked) * delta
        self.issue.advance_idle(delta)

    def remove_tb(self, tb_rt: "TBRuntime") -> None:
        """A threadblock left the SM: drop its warps from the issue
        stage and its zero-cost entries from the shared ledger."""
        for w in tb_rt.warps:
            w.ibuffer.detach()
        self.issue.remove_tb(tb_rt)

    def _account_waits(self, cycle: int) -> None:
        core = self.core
        if core.pipeline_trace is None:
            core.stats.sync_wait_cycles += len(self.sync_blocked)
            return
        for w in core.warps:
            if not w.exited and (w.skip_blocked or w.branch_sync_blocked):
                core.stats.sync_wait_cycles += 1
                core.pipeline_trace.record(
                    cycle, core.sm_id, w.tb_rt.tb.tb_index,
                    w.warp.warp_id, "B", w.fetch_pc,
                )

    def occupancy(self) -> Dict[str, int]:
        """Instantaneous buffer occupancy (debug/trace aid)."""
        buffered = sum(w.ibuffer.buffered for w in self.core.warps)
        return {
            "ibuffer": buffered,
            "zero_cost": self.zero_cost.total,
            "inflight": len(self.wbq),
        }
