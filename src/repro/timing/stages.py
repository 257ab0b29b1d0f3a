"""Explicit stage objects of the SM pipeline (Section 3 / Figure 4).

The monolithic ``SMCore`` is split into six stage classes, each with a
``tick(cycle) -> activity`` contract, communicating only through the
typed buffers in :mod:`repro.timing.buffers`:

- :class:`WritebackStage` — pops due instructions off the shared
  :class:`~repro.timing.buffers.WritebackQueue`, releases scoreboard
  entries and fires the frontend's ``on_writeback`` (LeaderWB) hook for
  each leader's entry.
- :class:`DecodeSkipStage` — the zero-cost, in-order drain of eliminated
  instructions (DARSIE skip tokens, DAC-IDEAL free entries) at the head
  of each warp's I-buffer.
- :class:`IssueStage` — the GTO / loose-round-robin warp schedulers.
  GTO probes only awake warps: a warp whose probe issued nothing sleeps
  until :meth:`~repro.timing.core.WarpRuntime.wake`.  A selected
  instruction goes through execute *in the same cycle* (back-to-back
  pipeline with full bypass — exactly the timing the monolithic core
  modelled).
- :class:`ExecuteStage` — one step per issued instruction: register-file
  reads and bank-conflict accounting (including DARSIE's rename-space
  conflicts, Section 6.1), functional execution, latency modelling and
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
store (``tests/timing/data/golden.json``) and fuzz oracle 4's
never-sleep reference.  Stages wake the warps they change for issue:
writeback (the scoreboard release), the decode-skip drain and fetch (the
I-buffer push).  What moves a warp's fetch PC or readiness also queues
it for the frontend's pass: a redirect, a barrier or branch-sync
release, a reconvergence in execute; after a fetch, the frontend's
``on_fetch`` queues the warp itself when the new PC can matter to it.

The stages call a frontend's event hooks through the pipeline's
:class:`~repro.timing.frontend.FrontendHooks`: a hook the frontend's
class does not define is None and is not called.

An attached :class:`~repro.timing.pipeline_trace.PipelineTrace` only
observes: the event sites record into it, and a traced tick also takes
a stage sample.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.isa.instructions import INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.operands import MemSpace
from repro.timing.buffers import IBufferEntry, WakeQueue, WritebackQueue, ZeroCostLedger
from repro.timing.frontend import FetchAction, FrontendHooks
from repro.timing.stats import EnergyEvent

_FETCH = FetchAction.FETCH
_FETCH_LEADER = FetchAction.FETCH_LEADER
_HANDLED = FetchAction.HANDLED
_WAIT = FetchAction.WAIT

_SHARED = MemSpace.SHARED
_GLOBAL = MemSpace.GLOBAL
_NOP = Opcode.NOP

_ICACHE_FETCH = EnergyEvent.ICACHE_FETCH
_DECODE = EnergyEvent.DECODE
_ISSUE = EnergyEvent.ISSUE
_RF_READ = EnergyEvent.RF_READ
_RF_WRITE = EnergyEvent.RF_WRITE
_ALU_OP = EnergyEvent.ALU_OP
_SFU_OP = EnergyEvent.SFU_OP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.timing.core import SMCore, TBRuntime, WarpRuntime


class Stage:
    """One pipeline stage bound to a :class:`StagePipeline`.

    ``tick`` advances the stage one cycle and returns the number of
    state changes it (and any frontend hooks it invoked) produced; all
    activity is added to the pipeline's single ``activity`` counter,
    which a pipeline trace samples per stage.  The count is an
    observation: no part of the simulation reads it.  Subclasses
    implement :meth:`run` and never override ``tick``: the benchmark's
    traced run times every stage through this one method.
    """

    name = "stage"

    def __init__(self, pipeline: "StagePipeline") -> None:
        self.pipeline = pipeline
        self.core: "SMCore" = pipeline.core

    def tick(self, cycle: int) -> int:
        pipeline = self.pipeline
        before = pipeline.activity
        self.run(cycle)
        return pipeline.activity - before

    def run(self, cycle: int) -> None:  # pragma: no cover - overridden
        pass


class WritebackStage(Stage):
    """Retire due instructions: scoreboard release + LeaderWB hook."""

    name = "writeback"

    def __init__(self, pipeline: "StagePipeline") -> None:
        super().__init__(pipeline)
        self._on_writeback = pipeline.hooks.on_writeback

    def run(self, cycle: int) -> None:
        # Nothing the loop calls schedules a writeback, so the due list
        # is complete when it is taken.
        pipeline = self.pipeline
        due = pipeline.wbq.pop_due(cycle)
        if not due:
            return
        core = self.core
        trace = core.pipeline_trace
        on_writeback = self._on_writeback
        wake = pipeline.issue.wake
        energy = core.stats.energy_events
        pipeline.activity += len(due)
        for wrt, entry in due:
            wrt.inflight -= 1
            if trace is not None:
                trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "W", entry.inst.pc,
                )
            dests = entry.inst.sb_dests
            if dests:
                wrt.scoreboard.difference_update(dests)
                energy[_RF_WRITE] += 1
            if entry.is_leader and on_writeback is not None:
                on_writeback(wrt, entry)
            if wrt.asleep and wrt.ibuffer.entries:
                wake(wrt)  # WarpRuntime.wake_issue, inlined


class DecodeSkipStage(Stage):
    """Zero-cost, in-order drain of eliminated instructions.

    DARSIE skip tokens only advance the architectural PC (the leader
    executed the instruction; the follower shares its value through
    renaming).  DAC-IDEAL free entries execute functionally — the
    idealized affine stream — without pipeline cost.
    """

    name = "decode-skip"

    def run(self, cycle: int) -> None:
        ledger = self.pipeline.zero_cost
        if not ledger.warps:
            return
        core = self.core
        issue = self.pipeline.issue
        for wrt in ledger.in_age_order():
            ibuf = wrt.ibuffer
            entries = ibuf.entries
            drained = 0
            while entries:
                entry = entries[0]
                if entry.skip_token:
                    ibuf.pop()
                    drained += 1
                    stack = wrt.warp.stack
                    top = stack[-1]
                    assert top.pc == entry.inst.pc, (
                        f"skip token out of order: arch pc {top.pc:#x}, "
                        f"token pc {entry.inst.pc:#x}"
                    )
                    top.pc += INSTRUCTION_BYTES
                    if len(stack) > 1:
                        wrt.warp.maybe_reconverge()
                    continue
                if not entry.free or _hazard(wrt, entry.inst):
                    break
                ibuf.pop()
                drained += 1
                core.engine.execute_instruction(wrt.tb_rt.tb, wrt.warp, entry.inst)
                core.stats.instructions_skipped += 1
            if drained:
                self.pipeline.activity += drained
                if wrt.asleep:
                    # Its head changed: it may issue now, or, drained
                    # empty, it leaves the stalled candidates.
                    issue.wake(wrt)


def _hazard(wrt: "WarpRuntime", inst: Instruction) -> bool:
    sb = wrt.scoreboard
    return bool(sb) and not sb.isdisjoint(inst.hazard_keys)


class IssueStage(Stage):
    """The per-SM warp schedulers (GTO per Table 2, or loose RR).

    Owns the per-scheduler warp lists (in age order), the greedy
    pointers and the round-robin cursors; a selected instruction's
    :class:`~repro.timing.buffers.IBufferEntry` goes through
    :meth:`ExecuteStage.execute` within the same cycle.

    GTO splits wake-up from select: a warp whose probe found nothing to
    issue goes to sleep, and only a wake (:meth:`WarpRuntime.wake_issue
    <repro.timing.core.WarpRuntime.wake_issue>` at writeback, a fetch's
    push or a drain; :meth:`WarpRuntime.wake
    <repro.timing.core.WarpRuntime.wake>` at a fetch redirect or sync
    release) puts it back in its scheduler's ``awake`` list, which
    :meth:`wake` keeps in age order so a slot never sorts.  A warp with
    an empty I-buffer stays asleep: its probe would only put it back,
    and the push that fills the buffer wakes it.  Each cycle probes the
    awake warps, greedy first and then by age.  Sleeping warps with a
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
        self._greedy: List[Optional["WarpRuntime"]] = [None] * config.num_schedulers
        self._issue_rr: List[int] = [0] * config.num_schedulers
        #: per-scheduler warp lists in age order (mirrors ``core.warps``)
        self.sched_warps: List[List["WarpRuntime"]] = [
            [] for _ in range(config.num_schedulers)
        ]
        #: per-scheduler warps GTO probes this cycle, in age order; a warp
        #: is listed exactly when it is live and not ``asleep``
        self.awake: List[List["WarpRuntime"]] = [
            [] for _ in range(config.num_schedulers)
        ]
        #: per-scheduler sleeping warps with instructions buffered
        self.stalled: List[Set["WarpRuntime"]] = [
            set() for _ in range(config.num_schedulers)
        ]

    # -- residency bookkeeping (driven by the core) -------------------------

    def add_warp(self, wrt: "WarpRuntime") -> None:
        self.sched_warps[wrt.scheduler_id].append(wrt)
        self.wake(wrt)

    def remove_tb(self, tb_rt: "TBRuntime") -> None:
        self.sched_warps = [
            [w for w in lst if w.tb_rt is not tb_rt] for lst in self.sched_warps
        ]
        for w in tb_rt.warps:
            if not w.asleep:
                w.asleep = True
                self.awake[w.scheduler_id].remove(w)
            self.stalled[w.scheduler_id].discard(w)

    def wake(self, wrt: "WarpRuntime") -> None:
        if wrt.warp.exited:
            return  # it can never issue again: it stays asleep
        self.stalled[wrt.scheduler_id].discard(wrt)
        if not wrt.ibuffer.entries:
            return  # nothing to issue; the push that fills it wakes it
        wrt.asleep = False
        awake = self.awake[wrt.scheduler_id]
        # Keep age order: walk back from the youngest end (warps launch,
        # and so usually wake, in age order).
        age = wrt.age
        i = len(awake)
        while i and awake[i - 1].age > age:
            i -= 1
        awake.insert(i, wrt)

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
        # answers.  Each slot probes a copy of the awake list taken when
        # it starts: an issue can wake other warps (barrier or
        # branch-sync release), and they wait for the next slot.
        greedy_of = self._greedy
        warps_per_cycle = self.warps_per_cycle
        for sched, awake in enumerate(self.awake):
            if not awake and not self.stalled[sched]:
                continue  # no candidate: the greedy pointer stays
            stalled = self.stalled[sched]
            issued: List["WarpRuntime"] = []
            for _slot in range(warps_per_cycle):
                issued_from: Optional["WarpRuntime"] = None
                had_candidate = bool(stalled)
                if awake:
                    order = awake[:]
                    greedy = greedy_of[sched]
                    if greedy is not None and not greedy.asleep and greedy is not order[0]:
                        order.remove(greedy)
                        order.insert(0, greedy)
                    for wrt in order:
                        if issued and wrt in issued:
                            continue
                        if wrt.warp.exited:
                            if not wrt.asleep:  # else its TB left mid-slot
                                wrt.asleep = True
                                awake.remove(wrt)
                            continue
                        if not wrt.ibuffer.entries:
                            wrt.asleep = True
                            awake.remove(wrt)
                            continue
                        had_candidate = True
                        if self._issue_from_warp(cycle, wrt):
                            issued_from = wrt
                            break
                        wrt.asleep = True
                        awake.remove(wrt)
                        stalled.add(wrt)
                if had_candidate:
                    greedy_of[sched] = issued_from
                if issued_from is None:
                    break
                issued.append(issued_from)

    def _run_lrr(self, cycle: int) -> None:
        # Loose round-robin: rotate priority each cycle.
        for sched, swarps in enumerate(self.sched_warps):
            candidates = [w for w in swarps if not w.warp.exited and w.ibuffer.entries]
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
        execute = pipeline.execute.execute
        stats = core.stats
        energy = stats.energy_events
        ibuf = wrt.ibuffer
        entries = ibuf.entries
        scoreboard = wrt.scoreboard
        warp = wrt.warp
        issue_width = core.config.issue_width
        while issued < issue_width and entries:
            entry = entries[0]
            if entry.free or entry.skip_token:
                break  # handled by the decode-skip drain
            if warp.at_barrier or wrt.branch_sync_blocked:
                break
            inst = entry.inst
            if scoreboard and not scoreboard.isdisjoint(inst.hazard_keys):
                break  # _hazard(), inlined
            ibuf.pop()
            pipeline.activity += 1
            if core.pipeline_trace is not None:
                core.pipeline_trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, warp.warp_id,
                    "I", inst.pc,
                )
            stats.instructions_issued += 1
            energy[_ISSUE] += 1
            execute(cycle, wrt, entry)
            issued += 1
            if inst.is_branch or inst.is_exit or inst.is_barrier:
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


class ExecuteStage(Stage):
    """One step per issued instruction: operand collection, functional
    execution at issue, latency modelling, writeback scheduling and
    post-execute control flow."""

    name = "execute"

    def __init__(self, pipeline: "StagePipeline") -> None:
        super().__init__(pipeline)
        core = self.core
        rf_banks = core.config.rf_banks
        #: pc -> :meth:`Instruction.bank_info` at this RF's width, fixed
        #: for the run, so an issue reads it without a method call
        self._bank_info = {inst.pc: inst.bank_info(rf_banks) for inst in core.ctx.program}
        hooks = pipeline.hooks
        self._eliminate_at_issue = hooks.eliminate_at_issue
        self._on_store = hooks.on_store
        self._on_global_communication = hooks.on_global_communication
        self._blocks_after_branch = hooks.blocks_after_branch

    def execute(self, cycle: int, wrt: "WarpRuntime", entry: IBufferEntry) -> None:
        """Collect ``entry``'s operands, execute it for ``wrt``, store its
        :class:`~repro.simt.executor.StepResult` on the entry, queue the
        entry for writeback when it writes a register or leads, and
        apply its control flow."""
        core = self.core
        stats = core.stats
        energy = stats.energy_events
        inst = entry.inst
        warp = wrt.warp
        overrides = entry.overrides

        # Operand collection: same-cycle operand bank collisions (coarse
        # operand-collector model: each distinct source register occupies
        # one bank read).  The increment stays even when it adds 0: it
        # fixes RF_READ's place in the energy order.
        energy[_RF_READ] += inst.rf_read_count
        conflicts, banks = self._bank_info[inst.pc]
        if overrides:
            # Renamed operands live in the strided rename space; reads
            # from it collide with the warp's own operand reads
            # (Section 6.1's DARSIE-induced bank conflicts).
            rename_banks = overrides.get("banks", ())
            collide = sum(1 for b in rename_banks if b in banks)
            conflicts += collide
            stats.darsie_bank_conflicts += collide
        stats.rf_bank_conflicts += conflicts

        eliminate_at_issue = self._eliminate_at_issue
        eliminate_kind = None if eliminate_at_issue is None else eliminate_at_issue(wrt, inst)
        stack = warp.stack
        depth_before = len(stack)
        tb = wrt.tb_rt.tb
        if overrides is None:
            result = core.engine.execute_instruction(tb, warp, inst)
        else:
            result = core.engine.execute_instruction(
                tb,
                warp,
                inst,
                reg_overrides=overrides.get("regs"),
                pred_overrides=overrides.get("preds"),
            )
        entry.result = result
        stats.instructions_executed += 1
        if depth_before > 1:
            stats.divergence_serialized_instructions += 1
        is_branch = inst.is_branch
        if is_branch and len(stack) > depth_before:
            stats.divergent_branches += 1

        # Latency by functional-unit class.
        if eliminate_kind is not None:
            stats.executions_eliminated += 1
            stats.eliminated_by_class[eliminate_kind] += 1
            ready = cycle + 1
        elif inst.is_memory:
            assert inst.mem is not None
            addresses = result.mem_addresses
            if addresses is None:
                ready = cycle + 1
            elif inst.mem.space is _SHARED:
                ready = core.memory.shared_access(cycle, addresses, result.exec_mask)
            else:
                ready = core.memory.global_access(
                    cycle, addresses, result.exec_mask, inst.is_store
                )
        elif inst.uses_sfu:
            energy[_SFU_OP] += 1
            ready = cycle + core.config.sfu_latency
        elif is_branch or inst.is_exit or inst.is_barrier or inst.opcode is _NOP:
            ready = cycle + 1
        else:
            energy[_ALU_OP] += 1
            ready = cycle + core.config.alu_latency

        dests = inst.sb_dests
        if dests:
            wrt.scoreboard.update(dests)
        if dests or entry.is_leader:
            self.pipeline.wbq.schedule(ready, wrt, entry)

        # Post-execute control flow.  The issuing warp is awake already;
        # what its execution changes for the frontend's pass (a
        # control-flow redirect, a barrier release, a reconvergence)
        # wakes it below.
        if inst.is_store and self._on_store is not None:
            self._on_store(wrt.tb_rt)
        if inst.is_atomic and self._on_global_communication is not None:
            assert inst.mem is not None
            if inst.mem.space is _GLOBAL:
                self._on_global_communication()

        if is_branch:
            blocks_after_branch = self._blocks_after_branch
            if blocks_after_branch is not None and blocks_after_branch(wrt, inst):
                wrt.set_branch_sync_blocked(True)
            else:
                wrt.resync_fetch()
        elif inst.is_barrier:
            core.release_barrier(wrt.tb_rt)
        elif inst.is_exit:
            if result.retired:
                core.retire_warp(wrt)
            else:
                wrt.resync_fetch()
        elif stack[-1].pc != inst.pc + INSTRUCTION_BYTES:
            # A reconvergence pop switched the warp to another divergent
            # path (non-sequential PC without a branch): the straight-line
            # prefetch past the reconvergence point is wrong-path.
            wrt.ibuffer.clear()
            wrt.resync_fetch()
        elif len(stack) != depth_before:
            # Reconverged onto the continuation: its SIMD divergence,
            # which the skip engine reads, may have ended.
            wrt.wake()


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
        hooks = pipeline.hooks
        self._fetch_cycle = hooks.fetch_cycle
        self._filter_fetch = hooks.filter_fetch
        self._on_fetch = hooks.on_fetch
        #: pc -> instruction: the program's pc table, fixed for the run
        self._at = {inst.pc: inst for inst in self.core.ctx.program}

    def run(self, cycle: int) -> None:
        core = self.core
        if self._fetch_cycle is not None:
            self._fetch_cycle(cycle)
        warps = core.warps
        n = len(warps)
        if n == 0:
            return
        end_pc = core.ctx.program.end_pc
        capacity = core.config.ibuffer_entries
        filter_fetch = self._filter_fetch
        action = _FETCH
        for _initiated in range(core.config.fetch_warps_per_cycle):
            rr = self._fetch_rr
            for i in range(n):
                wrt = warps[(rr + i) % n]
                warp = wrt.warp
                # ready to fetch (live, not held by a control instruction in
                # flight, a branch barrier, bar.sync or the skip engine),
                # with a free I-buffer slot and an in-range fetch PC
                if (
                    warp.exited
                    or wrt.cf_stalled
                    or wrt.branch_sync_blocked
                    or warp.at_barrier
                    or wrt.skip_blocked
                    or wrt.ibuffer.buffered >= capacity
                    or wrt.fetch_pc >= end_pc
                ):
                    continue
                if filter_fetch is not None:
                    action = filter_fetch(wrt, wrt.fetch_pc)
                    if action is _HANDLED or action is _WAIT:
                        continue
                self._fetch_rr = (rr + i + 1) % n
                break
            else:
                return
            self.pipeline.activity += 1
            core.stats.energy_events[_ICACHE_FETCH] += 1
            self._fetch_into(cycle, wrt, action)

    def _fetch_into(
        self, cycle: int, wrt: "WarpRuntime", action: FetchAction
    ) -> None:
        core = self.core
        config = core.config
        fetch_width = config.fetch_width
        capacity = config.ibuffer_entries
        end_pc = core.ctx.program.end_pc
        at = self._at
        filter_fetch = self._filter_fetch
        on_fetch = self._on_fetch
        trace = core.pipeline_trace
        stats = core.stats
        energy = stats.energy_events
        ibuf = wrt.ibuffer
        bypass_pcs = wrt.bypass_pcs
        fetched = 0
        while fetched < fetch_width and ibuf.buffered < capacity:
            if action is _HANDLED or action is _WAIT:
                break
            pc = wrt.fetch_pc
            inst = at[pc]
            is_leader = action is _FETCH_LEADER
            overrides = None if on_fetch is None else on_fetch(wrt, inst, is_leader)
            ibuf.push(IBufferEntry(inst, is_leader, overrides))
            if trace is not None:
                trace.record(
                    cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id,
                    "F", pc,
                )
            stats.instructions_fetched += 1
            stats.instructions_decoded += 1
            energy[_DECODE] += 1
            if bypass_pcs:
                bypass_pcs.discard(pc)
            pc += INSTRUCTION_BYTES
            wrt.fetch_pc = pc
            fetched += 1
            if inst.is_branch or inst.is_exit or inst.is_barrier:
                wrt.cf_stalled = True
                break
            if pc >= end_pc:
                break
            if filter_fetch is not None:
                action = filter_fetch(wrt, pc)
        if wrt.asleep:
            # WarpRuntime.wake_issue, inlined: the fetch filled the buffer.
            self.pipeline.issue.wake(wrt)


class StagePipeline:
    """The assembled SM pipeline: stages, shared buffers, activity.

    Intra-cycle order (identical to the historical monolith, and pinned
    by the golden store): writeback -> decode-skip -> issue (which
    drives execute combinationally) -> fetch (which runs the frontend's
    per-cycle hook first) -> wait accounting, which adds the size of
    the ``sync_blocked`` set, traced or not.
    """

    def __init__(self, core: "SMCore") -> None:
        self.core = core
        #: the frontend's event hooks, None where its class defines none
        self.hooks = FrontendHooks(core.frontend)
        self.zero_cost = ZeroCostLedger()
        self.wbq = WritebackQueue()
        #: warps due a visit by the frontend's per-cycle pass; a frontend
        #: that makes one installs the queue at bind
        self.wake_queue: Optional[WakeQueue] = None
        #: live warps blocked on DARSIE or branch synchronization (the
        #: ``sync_wait_cycles`` population)
        self.sync_blocked: Set["WarpRuntime"] = set()
        #: state changes observed during the current tick: stages add to
        #: it directly, frontends through ``SMCore.note_activity``
        self.activity = 0
        self.writeback = WritebackStage(self)
        self.decode_skip = DecodeSkipStage(self)
        issue = core.frontend.make_issue_stage(self)
        self.issue: IssueStage = issue if issue is not None else IssueStage(self)
        self.execute = ExecuteStage(self)
        self.fetch = FetchStage(self)
        #: the ticked stages, in intra-cycle order (execute is driven
        #: combinationally by issue, not ticked)
        self.stages = (self.writeback, self.decode_skip, self.issue, self.fetch)

    def sync_blocked_changed(self, wrt: "WarpRuntime") -> None:
        """Re-file ``wrt`` after a sync flag write or its exit: the one
        place the ``sync_blocked`` set changes, so a trace's wait opens
        where the warp joins it and closes where it leaves."""
        waits = (wrt.skip_blocked or wrt.branch_sync_blocked) and not wrt.warp.exited
        if waits == (wrt in self.sync_blocked):
            return
        if waits:
            self.sync_blocked.add(wrt)
        else:
            self.sync_blocked.remove(wrt)
        core = self.core
        trace = core.pipeline_trace
        if trace is not None:
            at = (core.cycle, core.sm_id, wrt.tb_rt.tb.tb_index, wrt.warp.warp_id)
            if waits:
                trace.open_wait(*at, wrt.fetch_pc)
            else:
                trace.close_wait(*at)

    def tick(self, cycle: int) -> int:
        """Advance every stage one cycle; returns the activity count,
        the state changes the stages and frontend hooks made (0: an
        idle tick).  The GPU calls it on every cycle the SM is busy,
        traced or not; a traced tick differs only by taking the trace's
        stage sample."""
        self.activity = 0
        core = self.core
        trace = core.pipeline_trace
        if trace is None:
            self.writeback.tick(cycle)
            self.decode_skip.tick(cycle)
            self.issue.tick(cycle)
            self.fetch.tick(cycle)
        else:
            stage_activity = {stage.name: stage.tick(cycle) for stage in self.stages}
            trace.sample(cycle, core.sm_id, stage_activity, self.occupancy())
        core.stats.sync_wait_cycles += len(self.sync_blocked)
        return self.activity

    def advance_idle(self, delta: int) -> None:
        """A no-op that the simulator never calls.

        It stays only because the benchmark's span recorder
        (``perf/spans.py``) wraps this attribute by name when it
        installs; the benchmark's next change drops the wrapper and
        this method with it.
        """

    def remove_tb(self, tb_rt: "TBRuntime") -> None:
        """A threadblock left the SM: drop its warps from the issue
        stage and its zero-cost entries from the shared ledger."""
        for w in tb_rt.warps:
            w.ibuffer.detach()
        self.issue.remove_tb(tb_rt)

    def occupancy(self) -> Dict[str, int]:
        """Instantaneous buffer occupancy (debug/trace aid)."""
        buffered = sum(w.ibuffer.buffered for w in self.core.warps)
        return {
            "ibuffer": buffered,
            "zero_cost": self.zero_cost.total,
            "inflight": len(self.wbq),
        }
