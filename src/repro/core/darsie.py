"""DARSIE's fetch-stage instruction skipper (Sections 4.1, 4.3–4.5).

The frontend ties together the PC skip table, the PC coalescer, the
register rename/version unit and the majority-path mask:

- The first majority-path warp to reach a skippable PC becomes the
  **leader**: it fetches and executes the instruction normally; at
  writeback a new register version is created and the entry's LeaderWB
  bit is set (Section 4.3.5).
- **Follower** warps reaching the PC afterwards skip it entirely —
  their PC is incremented by 8 without touching the fetch scheduler or
  the I-cache — and their rename mapping advances to the leader's
  version.  Skips are arbitrated by the PC coalescer under the skip
  table's port budget.
- **Branches force a TB-wide barrier** among majority-path warps so all
  skipping warps share one control-flow history; warps that take the
  minority direction, or diverge at SIMD granularity, leave the majority
  path and stop skipping (``DARSIE-NO-CF-SYNC`` disables the barrier and
  detects deviation without waiting — the idealised Figure 12 variant).
- **Stores and global communication invalidate skipped loads**
  (Section 4.4); warps that had not yet consumed an invalidated entry
  execute the load privately (``DARSIE-IGNORE-STORE`` disables this —
  the Figure 8 variant).
- When the **rename freelist empties**, the entry becomes a TB
  synchronization point: all majority warps gather at the PC so stale
  versions can be reclaimed (Section 4.3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.coalescer import PCCoalescer
from repro.core.majority import MajorityPathMask
from repro.core.promotion import promote_markings
from repro.core.rename import Materialization, PortBudget, RegisterRenameUnit
from repro.core.skip_table import PCSkipTable, SkipTableEntry
from repro.core.taxonomy import Marking
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.operands import MemSpace
from repro.timing.buffers import WakeQueue
from repro.timing.config import check_minimums
from repro.timing.core import IBufferEntry
from repro.timing.frontend import FetchAction, Frontend
from repro.timing.stats import EnergyEvent


@dataclass(frozen=True)
class DarsieConfig:
    """DARSIE feature knobs (paper defaults)."""

    #: skip-table entries allocated per TB (Section 6.3)
    skip_entries_per_tb: int = 8
    #: rename registers per TB (Section 4.3.1)
    rename_regs_per_tb: int = 32
    #: skip-table ports after PC coalescing (Section 4.3.4)
    skip_ports: int = 2
    #: DARSIE-IGNORE-STORE: keep load entries across stores (Figure 8)
    ignore_store: bool = False
    #: DARSIE-NO-CF-SYNC: no TB barrier at branches (Figure 12)
    no_cf_sync: bool = False
    #: ablation: synchronize the TB on every redundant write instead of
    #: versioning (Section 4.1, rejected option 1)
    sync_on_write: bool = False

    def __post_init__(self) -> None:
        check_minimums(self, "darsie")


class _TBState:
    """Per-threadblock DARSIE hardware state."""

    def __init__(
        self,
        num_warps: int,
        cfg: DarsieConfig,
        rf_banks: int,
        rename_ports: Optional[int] = None,
        version_table_ports: Optional[int] = None,
    ):
        self.table = PCSkipTable(capacity=cfg.skip_entries_per_tb)
        self.rename = RegisterRenameUnit(
            num_warps, freelist_size=cfg.rename_regs_per_tb, rf_banks=rf_banks
        )
        #: decode-path rename-table read ports (None = ideal)
        self.rename_budget = PortBudget(rename_ports)
        #: skip-engine version-table ports (None = ideal)
        self.version_budget = PortBudget(version_table_ports)
        self.majority = MajorityPathMask(num_warps)
        #: branch-barrier bookkeeping: pc -> {warp_id: (post_pc, simd_div)}
        self.branch_wait: Dict[int, Dict[int, Tuple[int, bool]]] = {}
        #: NO-CF-SYNC: first-recorded outcome per (pc, instance)
        self.branch_outcomes: Dict[Tuple[int, int], int] = {}
        #: per-warp branch instance counters (NO-CF-SYNC)
        self.branch_count: Dict[Tuple[int, int], int] = {}
        #: per-warp pending leader writes: key -> FIFO of reserved versions
        self.pending_leader: Dict[int, Dict[tuple, list]] = {}


class DarsieFrontend(Frontend):
    """The DARSIE instruction skipper, plugged into the SM frontend."""

    name = "DARSIE"

    def __init__(self, analysis, config: Optional[DarsieConfig] = None):
        self.analysis = analysis
        self.cfg = config or DarsieConfig()
        if self.cfg.ignore_store:
            self.name = "DARSIE-IGNORE-STORE"
        if self.cfg.no_cf_sync:
            self.name = "DARSIE-NO-CF-SYNC"
        self.skip_pcs: Set[int] = set()
        self.promoted: Dict[int, Marking] = {}
        self._global_loads_disabled = False
        self._leader_pending_fetch: Dict[Tuple[int, int], int] = {}
        self.coalescer = PCCoalescer(ports=self.cfg.skip_ports)

    # -- setup -------------------------------------------------------------

    def bind(self, sm) -> None:
        super().bind(sm)
        self.promoted = promote_markings(
            self.analysis.instruction_markings, sm.ctx.launch
        )
        self.skip_pcs = self.analysis.skippable_pcs(self.promoted)
        if sm.ctx.launch.warps_per_block < 2:
            # A single-warp TB has no followers to share with: skipping
            # would be pure overhead (leader election, versioning) for
            # zero elimination.  The launch-time check disables it.
            self.skip_pcs = set()
        self.program = sm.ctx.program
        # The skip engine visits only woken warps (none when nothing is
        # skippable: every warp then takes the early exit for good).
        self.wake_queue: Optional[WakeQueue] = None
        if self.skip_pcs:
            self.wake_queue = sm.pipeline.wake_queue = WakeQueue()

    def on_tb_launch(self, tb_rt) -> None:
        tb_rt.frontend_state = _TBState(
            num_warps=len(tb_rt.warps),
            cfg=self.cfg,
            rf_banks=self.sm.config.rf_banks,
            rename_ports=self.sm.config.rename_ports,
            version_table_ports=self.sm.config.version_table_ports,
        )

    # -- helpers --------------------------------------------------------------

    def _st(self, tb_rt) -> _TBState:
        return tb_rt.frontend_state

    def _eligible(self, wrt) -> bool:
        st = wrt.tb_rt.frontend_state
        return (
            not wrt.exited
            and st.majority.is_on_path(wrt.warp.warp_id)
            and not wrt.warp.has_simd_divergence
        )

    def _skippable_here(self, wrt, pc: int) -> bool:
        if pc not in self.skip_pcs:
            return False
        if pc in wrt.bypass_pcs:
            return False
        if self._global_loads_disabled:
            inst = self.program.at(pc)
            if inst.is_load and inst.mem.space is MemSpace.GLOBAL:
                return False
        return self._eligible(wrt)

    def _bypass_pending(self, tb_rt, pc: int) -> bool:
        return any(pc in w.bypass_pcs for w in tb_rt.warps if not w.exited)

    # -- the skip engine (runs in parallel with the fetch scheduler) ----------

    def fetch_cycle(self, cycle: int) -> None:
        wake_queue = self.wake_queue
        if wake_queue is None:
            return  # fixed at bind time; nothing ever skips or blocks
        skip_pcs = self.skip_pcs
        pending = self._leader_pending_fetch
        candidates: List[Tuple[tuple, tuple]] = []
        warp_of: Dict[tuple, object] = {}
        # Visit the woken warps in TB-then-warp order.  The early exit,
        # a park and an election leave the warp's outcome fixed until its
        # next wake; "skip", "wait" and "fetch" are re-probed next cycle.
        for wrt in wake_queue.drain():
            if wrt.exited:
                continue
            tb_rt = wrt.tb_rt
            pc = wrt.fetch_pc
            if (
                pc not in skip_pcs
                or not wrt.fetch_ready()
                or not self._skippable_here(wrt, pc)
            ):
                wrt.set_skip_blocked(False)
                wrt.skip_parked = False
                if pending:
                    pending.pop((tb_rt.seq, wrt.warp.warp_id), None)
                continue
            if wrt.skip_parked:
                # Parked in the warps-waiting bitmask: nothing that
                # could change its classification has happened since
                # (a wake event clears the bit), so skip the probe.
                continue
            wid = (tb_rt.seq, wrt.warp.warp_id)
            if pending.get(wid) == pc:
                continue  # already elected; waiting for the fetch stage
            state = self._classify(cycle, tb_rt, tb_rt.frontend_state, wrt, pc)
            if state == "skip":
                candidates.append((wid, (tb_rt.seq, pc)))
                warp_of[wid] = (tb_rt, wrt)
                wrt.set_skip_blocked(True)  # released below if serviced
                wake_queue.revisit(wrt)
            elif state == "wait" or state == "park":
                if not wrt.skip_blocked:
                    # One probe per arrival; the warps-waiting bitmask
                    # parks the warp without re-probing (4.3.2).
                    self.sm.stats.energy_events[EnergyEvent.SKIP_TABLE_PROBE] += 1
                wrt.set_skip_blocked(True)
                # "park" has a guaranteed wake event (the leader's
                # writeback); "wait" reasons are re-checked per cycle.
                wrt.skip_parked = state == "park"
                if state == "wait":
                    wake_queue.revisit(wrt)
            elif state == "lead":
                wrt.set_skip_blocked(False)
                self._leader_pending_fetch[wid] = pc
            else:  # "fetch" — execute privately
                wrt.set_skip_blocked(False)
                wake_queue.revisit(wrt)

        if not candidates:
            return
        serviced, _deferred = self.coalescer.arbitrate(candidates)
        self.sm.stats.energy_events[EnergyEvent.PC_COALESCER] += 1
        for (_tb_seq, pc), wids in serviced:
            for wid in wids:
                tb_rt, wrt = warp_of[wid]
                self._perform_skip(tb_rt, wrt, pc)

    def _classify(self, cycle, tb_rt, st: _TBState, wrt, pc: int) -> str:
        """Decide what a majority-path warp at skippable ``pc`` does."""
        warp_id = wrt.warp.warp_id
        inst = self.program.at(pc)
        key = inst.dest_key
        assert key is not None
        expected = st.rename.count(warp_id, key) + 1
        entry = st.table.lookup(pc, now=cycle)
        if entry is None:
            if self._bypass_pending(tb_rt, pc):
                # A previous instance of this PC was invalidated and some
                # warps must still execute it privately; hold off new
                # leaders until they do (instances serialize).
                return "wait"
            sync_required = (not st.rename.can_allocate()) or self.cfg.sync_on_write
            if st.table.full:
                victim = st.table.eviction_victim()
                if victim is None:
                    return "fetch"  # nothing evictable: execute privately
                # Dynamic replacement (Section 6.3): warps that have not
                # consumed the victim execute its instruction privately.
                self._cancel_entry(tb_rt, st, victim)
            entry = st.table.insert(
                pc,
                leader_warp=warp_id,
                is_load=inst.is_load,
                now=cycle,
                sync_required=sync_required,
            )
            if entry is None:
                return "fetch"  # table full: execute privately, no skip
            entry.instance = expected
            self.sm.stats.energy_events[EnergyEvent.SKIP_TABLE_WRITE] += 1
            if sync_required:
                entry.warps_waiting.add(warp_id)
                self._maybe_release_sync(tb_rt, st, entry)
                if entry.sync_required:
                    return "wait"
            return "lead"
        if expected > entry.instance:
            # The warp already covered this instance (skipped it, or
            # executed it privately after a cancellation); it is at a
            # *later* instance — wait for the entry to retire.
            return "wait"
        if expected < entry.instance:
            # The warp missed instances that no longer have entries
            # (cancelled while it was away): catch up privately, one
            # instance per arrival.
            return "fetch"
        if entry.sync_required:
            entry.warps_waiting.add(warp_id)
            self._maybe_release_sync(tb_rt, st, entry)
            if entry.sync_required:
                return "wait"
            # Fall through: sync released; re-classify below.
        if entry.leader_warp == warp_id:
            return "lead" if not entry.leader_wb else "wait"
        if not entry.leader_wb:
            # The dominant wait: a follower parked until LeaderWB.  The
            # writeback (or a cancellation) is the only event that can
            # change this answer, and both wake the TB's parked warps —
            # so the scan need not re-probe every cycle.
            return "park"
        return "skip"

    def _maybe_release_sync(self, tb_rt, st: _TBState, entry: SkipTableEntry) -> None:
        members = set(st.majority.members())
        key = self.program.at(entry.pc).dest_key
        # Warps already past this instance never arrive here again; only
        # the ones still needing it must gather.
        required = {m for m in members if st.rename.count(m, key) < entry.instance}
        if not required or not (entry.warps_waiting >= required):
            return
        self.sm.stats.freelist_syncs += 1
        # Everyone is aligned at this PC; any still-pinned old versions
        # belong to nobody and have been reclaimed by the advancing
        # warps.  If rename space is still unavailable, cancel the entry
        # and let the whole TB execute this instance privately.
        if st.rename.can_allocate() or self.cfg.sync_on_write:
            entry.sync_required = False
            entry.warps_waiting.clear()
            self.sm.note_activity()
            for w in tb_rt.warps:
                if w.warp.warp_id in members and w.skip_blocked:
                    w.set_skip_blocked(False)
                    w.wake()
        else:
            self._cancel_entry(tb_rt, st, entry)

    def _wake_parked(self, tb_rt) -> None:
        """Clear the warps-waiting park bits: something happened that can
        change a parked warp's classification (LeaderWB, cancellation),
        so the scan re-probes each of them once."""
        for w in tb_rt.warps:
            if w.skip_parked:
                w.skip_parked = False
                w.wake()

    def _cancel_entry(self, tb_rt, st: _TBState, entry: SkipTableEntry) -> None:
        """Remove an entry before all majority warps consumed it; the
        remaining warps execute the instruction privately (one-shot)."""
        st.table.remove(entry.pc)
        self.sm.note_activity()
        self._wake_parked(tb_rt)
        key = self.program.at(entry.pc).dest_key
        members = set(st.majority.members())
        for w in tb_rt.warps:
            wid = w.warp.warp_id
            if wid in members and st.rename.count(wid, key) < entry.instance:
                w.bypass_pcs.add(entry.pc)
                w.set_skip_blocked(False)
                w.wake()

    def _perform_skip(self, tb_rt, wrt, pc: int) -> None:
        st = self._st(tb_rt)
        entry = st.table.lookup(pc)
        if entry is None or not entry.leader_wb:
            wrt.set_skip_blocked(True)
            return
        if not st.version_budget.acquire(self.sm.cycle):
            # Finite version-table ports: the skip engine already spent
            # this cycle's accesses on other followers.  The warp stays
            # skip-blocked (not parked) and re-arbitrates next cycle.
            self.sm.stats.version_table_port_stalls += 1
            self.sm.note_activity()
            wrt.set_skip_blocked(True)
            return
        inst = self.program.at(pc)
        key = inst.dest_key
        assert key is not None
        vv = st.rename.follower_skip(wrt.warp.warp_id, key)
        stats = self.sm.stats
        stats.follower_skips += 1
        stats.instructions_skipped += 1
        stats.skipped_by_class[vv.kind] += 1
        stats.energy_events[EnergyEvent.SKIP_TABLE_PROBE] += 1
        stats.energy_events[EnergyEvent.RENAME_WRITE] += 1
        stats.energy_events[EnergyEvent.VERSION_TABLE] += 1
        entry.warps_done.add(wrt.warp.warp_id)
        wrt.fetch_pc = pc + INSTRUCTION_BYTES
        wrt.set_skip_blocked(False)
        if self.sm.pipeline_trace is not None:
            self.sm.pipeline_trace.record(
                self.sm.cycle, self.sm.sm_id, tb_rt.tb.tb_index,
                wrt.warp.warp_id, "S", pc,
            )
        # Architectural PC must advance past the skipped instruction *in
        # program order*: enqueue a zero-cost skip token that bumps the
        # PC when it reaches the head of the I-buffer.
        wrt.push_entry(IBufferEntry(inst=inst, skip_token=True))
        self.sm.note_activity()
        self._maybe_retire(st, entry)

    def _maybe_retire(self, st: _TBState, entry: SkipTableEntry) -> None:
        if not entry.leader_wb:
            return
        key = self.program.at(entry.pc).dest_key
        # Highest warp id first: in the skip engine's TB-then-warp order
        # it usually reaches a PC last, so an entry still owed is mostly
        # settled by the first check.  The checks only read, so their
        # order cannot change the answer.
        if all(
            st.rename.count(wid, key) >= entry.instance
            for wid in reversed(st.majority.members())
        ):
            st.table.remove(entry.pc)

    # -- fetch-stage integration --------------------------------------------------

    def filter_fetch(self, wrt, pc: int) -> FetchAction:
        if not self._skippable_here(wrt, pc):
            return self._gate_rename_ports(wrt, pc, FetchAction.FETCH)
        wid = (wrt.tb_rt.seq, wrt.warp.warp_id)
        if self._leader_pending_fetch.get(wid) == pc:
            return self._gate_rename_ports(wrt, pc, FetchAction.FETCH_LEADER)
        if wrt.skip_blocked:
            return FetchAction.WAIT
        return FetchAction.HANDLED

    def _gate_rename_ports(self, wrt, pc: int, action: FetchAction) -> FetchAction:
        """Finite ``rename_ports``: a fetch whose decode would probe more
        rename-table entries than the cycle has ports left must wait."""
        if self.sm.config.rename_ports is None or not self.skip_pcs:
            return action
        st = self._st(wrt.tb_rt)
        needed = self._rename_reads_needed(st, wrt, self.program.at(pc))
        if needed and not st.rename_budget.acquire(self.sm.cycle, needed):
            self.sm.stats.rename_port_stalls += 1
            self.sm.note_activity()
            return FetchAction.WAIT
        return action

    def _rename_reads_needed(self, st: _TBState, wrt, inst) -> int:
        """Rename-table reads :meth:`on_fetch` will perform for ``inst``
        (live-mapped sources not superseded by an in-flight leader write,
        plus the guarded-destination probe)."""
        warp_id = wrt.warp.warp_id
        pending = st.pending_leader.get(warp_id, {})
        needed = 0
        for reg in inst.source_registers():
            key = ("r", reg.name)
            if not pending.get(key) and st.rename.read(warp_id, key) is not None:
                needed += 1
        for pred in inst.source_predicates():
            key = ("p", pred.name)
            if not pending.get(key) and st.rename.read(warp_id, key) is not None:
                needed += 1
        key = inst.dest_key
        if key is not None and inst.guard is not None and st.rename.read(warp_id, key) is not None:
            needed += 1
        return needed

    def on_fetch(self, wrt, inst, is_leader: bool) -> Optional[Dict]:
        st = self._st(wrt.tb_rt)
        warp_id = wrt.warp.warp_id
        if is_leader:
            self._leader_pending_fetch.pop((wrt.tb_rt.seq, warp_id), None)

        overrides = self._capture_sources(st, wrt, inst)

        key = inst.dest_key
        if key is not None and inst.guard is not None:
            # A guarded write may leave some (or all) live lanes holding
            # the *old* value, and that old value may live only in the
            # rename unit.  Hardware cannot know the guard outcome at
            # decode, so the superseded version is copied into private
            # space before the mapping is dropped; the (possibly partial)
            # write then merges over the correct base.
            vv = st.rename.read(warp_id, key)
            if vv is not None:
                self._materialize(
                    wrt,
                    [Materialization(key=key, value=vv.value.copy(), is_pred=vv.is_pred)],
                )
        if key is not None:
            pending = st.pending_leader.setdefault(warp_id, {})
            if is_leader:
                # Reserve the version number in fetch order; the value is
                # produced at writeback.  WAW scoreboarding keeps same-key
                # writebacks in program order, so a FIFO per key suffices.
                version = st.rename.reserve_version(warp_id, key)
                pending.setdefault(key, []).append(version)
            elif inst.pc in self.skip_pcs and st.majority.is_on_path(warp_id):
                # Skippable instance executed privately (bypass / table
                # full): advance this warp's write count to stay aligned.
                st.rename.private_instance_write(warp_id, key)
            else:
                st.rename.private_write(warp_id, key)
        return overrides

    def _capture_sources(self, st: _TBState, wrt, inst) -> Optional[Dict]:
        """Capture renamed source values in fetch order (Section 4.3.1:
        the rename table is probed prior to the baseline mapping)."""
        warp_id = wrt.warp.warp_id
        pending = st.pending_leader.get(warp_id, {})
        regs: Dict[str, np.ndarray] = {}
        preds: Dict[str, np.ndarray] = {}
        banks: List[int] = []
        for reg in inst.source_registers():
            key = ("r", reg.name)
            if pending.get(key):
                continue  # an older in-flight leader write supersedes
            vv = st.rename.read(warp_id, key)
            if vv is not None:
                regs[reg.name] = vv.value
                banks.append(st.rename.bank_of(vv.preg))
        for pred in inst.source_predicates():
            key = ("p", pred.name)
            if pending.get(key):
                continue
            vv = st.rename.read(warp_id, key)
            if vv is not None:
                preds[pred.name] = vv.value.astype(bool)
                banks.append(st.rename.bank_of(vv.preg))
        if not regs and not preds:
            return None
        reads = len(regs) + len(preds)
        energy = self.sm.stats.energy_events
        energy[EnergyEvent.RENAME_READ] += reads
        energy[EnergyEvent.VERSION_TABLE] += reads
        return {"regs": regs, "preds": preds, "banks": banks}

    # -- writeback: LeaderWB ------------------------------------------------------

    def on_writeback(self, wrt, ib_entry) -> None:
        if not ib_entry.is_leader:
            return
        inst = ib_entry.inst
        st = self._st(wrt.tb_rt)
        warp_id = wrt.warp.warp_id
        key = inst.dest_key
        pending = st.pending_leader.get(warp_id, {})
        version = None
        if key is not None and pending.get(key):
            version = pending[key].pop(0)
            if not pending[key]:
                del pending[key]
        entry = st.table.lookup(inst.pc)
        result = ib_entry.result
        # A guarded instruction whose predicate masked off any live lane
        # did not architecturally produce ``dest_value`` — the register
        # kept its old (warp-private) contents there, so the value is
        # not shareable even though the PC is statically skippable.
        full_write = not bool(np.any(wrt.warp.hw_mask & ~result.exec_mask))
        if (
            entry is not None
            and entry.leader_warp == warp_id
            and not entry.leader_wb
            and result.dest_value is not None
            and full_write
            and version is not None
            and st.rename.can_allocate()
        ):
            st.rename.leader_write(
                warp_id,
                key,
                version,
                np.asarray(result.dest_value),
                is_pred=inst.dest_predicate() is not None,
                members=st.majority.members(),
            )
            entry.leader_wb = True
            entry.warps_done.add(warp_id)
            self._wake_parked(wrt.tb_rt)
            stats = self.sm.stats
            stats.leaders_elected += 1
            stats.energy_events[EnergyEvent.RENAME_WRITE] += 1
            stats.energy_events[EnergyEvent.VERSION_TABLE] += 1
            self._maybe_retire(st, entry)
        else:
            # Entry invalidated (store) or rename space raced away: the
            # instance was effectively executed privately.  The write
            # count already advanced at reserve_version (fetch time);
            # just cancel the entry so followers execute it themselves.
            if entry is not None and entry.leader_warp == warp_id and not entry.leader_wb:
                self._cancel_entry(wrt.tb_rt, st, entry)

    # -- branches & majority path ------------------------------------------------

    def blocks_after_branch(self, wrt, inst) -> bool:
        tb_rt = wrt.tb_rt
        st = self._st(tb_rt)
        warp_id = wrt.warp.warp_id
        if not self.skip_pcs or not st.majority.is_on_path(warp_id):
            return False
        post_pc = wrt.warp.pc
        simd_div = wrt.warp.has_simd_divergence
        if self.cfg.no_cf_sync:
            count = st.branch_count.get((warp_id, inst.pc), 0)
            st.branch_count[(warp_id, inst.pc)] = count + 1
            outcome_key = (inst.pc, count)
            expected = st.branch_outcomes.setdefault(outcome_key, post_pc)
            if simd_div or post_pc != expected:
                self._leave_path(tb_rt, wrt)
            return False
        waiters = st.branch_wait.setdefault(inst.pc, {})
        waiters[warp_id] = (post_pc, simd_div)
        self.sm.stats.energy_events[EnergyEvent.MAJORITY_MASK] += 1
        return not self._maybe_release_branch(tb_rt, st, inst.pc)

    def _maybe_release_branch(self, tb_rt, st: _TBState, pc: int) -> bool:
        waiters = st.branch_wait.get(pc)
        if waiters is None:
            return True
        members = set(st.majority.members())
        if not (set(waiters) >= members):
            return False
        # Claim the wait record before processing: _leave_path re-enters
        # this function through _recheck.
        del st.branch_wait[pc]
        self.sm.note_activity()
        # Majority vote among the warps that are still SIMD-convergent.
        votes: Dict[int, int] = {}
        for wid in members:
            post_pc, simd_div = waiters[wid]
            if not simd_div:
                votes[post_pc] = votes.get(post_pc, 0) + 1
        winner = max(votes, key=lambda p: (votes[p], -p)) if votes else None
        for w in tb_rt.warps:
            wid = w.warp.warp_id
            if wid not in waiters:
                continue
            if wid in members:
                post_pc, simd_div = waiters[wid]
                if simd_div or post_pc != winner:
                    self._leave_path(tb_rt, w)
            if not w.exited:
                w.set_branch_sync_blocked(False)
                w.resync_fetch()
        self.sm.stats.branch_barriers += 1
        return True

    def _materialize(self, wrt, mats, count_energy: bool = True) -> None:
        """Copy renamed values into a warp's architectural registers.

        Writes are masked to the warp's hardware lanes: the leader's
        version vector is 32 lanes wide, but a partial warp (TB size not
        a multiple of 32) never writes its dead lanes under BASE, and
        the differential end-state contract holds bit-exactly.
        """
        hw = wrt.warp.hw_mask
        for mat in mats:
            kind, name = mat.key
            if kind == "r":
                wrt.warp.registers.write(name, mat.value, mask=hw)
            else:
                wrt.warp.registers.write_pred(name, mat.value, mask=hw)
            if count_energy:
                self.sm.stats.energy_events[EnergyEvent.RF_WRITE] += 1

    def _leave_path(self, tb_rt, wrt) -> None:
        """Section 4.3.5: a warp leaving the majority path copies its
        redundant register values into warp-private space and clears its
        rename state."""
        st = self._st(tb_rt)
        warp_id = wrt.warp.warp_id
        self._materialize(wrt, st.rename.clear_warp(warp_id))
        st.majority.clear(warp_id)
        wrt.wake()
        self.sm.stats.warps_left_majority += 1
        self._recheck(tb_rt, st)

    def _recheck(self, tb_rt, st: _TBState) -> None:
        """Majority membership shrank: barriers, syncs and entries may
        now be releasable."""
        for pc in list(st.branch_wait):
            self._maybe_release_branch(tb_rt, st, pc)
        for entry in st.table.entries():
            if entry.sync_required:
                self._maybe_release_sync(tb_rt, st, entry)
            self._maybe_retire(st, entry)

    # -- TB-wide events -----------------------------------------------------------

    def on_syncthreads(self, tb_rt) -> None:
        if not self.skip_pcs:
            return
        st = self._st(tb_rt)
        for warp_id, mats in st.rename.reset_all().items():
            self._materialize(tb_rt.warps[warp_id], mats)
        for entry in st.table.entries():
            st.table.remove(entry.pc)
        st.branch_wait.clear()
        st.pending_leader.clear()
        st.majority.reset_at_syncthreads()
        self.sm.stats.energy_events[EnergyEvent.MAJORITY_MASK] += 1
        for w in tb_rt.warps:
            w.set_skip_blocked(False)
            w.skip_parked = False
            w.bypass_pcs.clear()
            w.wake()

    def on_warp_exit(self, wrt) -> None:
        tb_rt = wrt.tb_rt
        st = self._st(tb_rt)
        warp_id = wrt.warp.warp_id
        # Materialize outstanding renamed values into the architectural
        # file so the exited warp's register state matches BASE (a warp
        # may exit while still mapped to leader versions it never copied
        # out).  No RF_WRITE energy is counted: real hardware simply
        # drops a dead warp's registers, and the copy exists only to
        # keep the differential end-state contract exact.
        self._materialize(wrt, st.rename.clear_warp(warp_id), count_energy=False)
        st.majority.warp_exited(warp_id)
        self._recheck(tb_rt, st)

    # -- memory-dependence events ---------------------------------------------

    def on_store(self, tb_rt) -> None:
        if self.cfg.ignore_store:
            return
        self._invalidate_loads(tb_rt)

    def on_global_communication(self) -> None:
        self._global_loads_disabled = True
        for tb_rt in self.sm.tbs:
            for w in tb_rt.warps:
                w.wake()
            self._invalidate_loads(tb_rt)

    def _invalidate_loads(self, tb_rt) -> None:
        """Drop the TB's load entries; majority warps that had not
        consumed one execute its load privately."""
        st = self._st(tb_rt)
        removed = st.table.invalidate_loads()
        self.sm.stats.load_entries_invalidated += len(removed)
        members = set(st.majority.members())
        for entry in removed:
            for w in tb_rt.warps:
                wid = w.warp.warp_id
                if wid in members and wid not in entry.warps_done:
                    w.bypass_pcs.add(entry.pc)
                    w.set_skip_blocked(False)
                    w.wake()
