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
        #: elected leaders waiting for the fetch stage: warp -> its PC
        self._leader_pending_fetch: Dict[object, int] = {}
        self.coalescer = PCCoalescer(ports=self.cfg.skip_ports)
        #: this pass's skip candidates still due ``skip_blocked`` if the
        #: coalescer defers them (a mid-pass release takes one out)
        self._blocking: Set = set()

    # -- setup -------------------------------------------------------------

    def bind(self, sm) -> None:
        super().bind(sm)
        self.promoted = promote_markings(
            self.analysis.instruction_markings, sm.ctx.launch
        )
        self.skip_pcs = self.analysis.skippable_pcs(self.promoted, sm.ctx.launch)
        self.program = program = sm.ctx.program
        skip_pcs = self.skip_pcs
        #: skippable global loads, which global communication disables
        self._global_load_pcs = frozenset(
            pc for pc in skip_pcs
            if program.at(pc).is_load and program.at(pc).mem.space is MemSpace.GLOBAL
        )
        #: finite rename ports gate the fetches of a skipping frontend
        self._gate_ports = sm.config.rename_ports is not None and bool(skip_pcs)
        # The skip engine visits only woken warps (none when nothing is
        # skippable: every warp then takes the early exit for good).
        self.wake_queue: Optional[WakeQueue] = None
        if skip_pcs:
            self.wake_queue = sm.pipeline.wake_queue = WakeQueue()
        # What the program fixes about renaming, decided once here:
        #: the registers a version can exist for (the skippable PCs'
        #: destinations); no other key is ever in the rename table
        self._renamed_keys = frozenset(program.at(pc).dest_key for pc in skip_pcs)
        #: pc -> its sources that can be renamed, in operand order (PCs
        #: with none are absent: their fetch never reads the rename table)
        self._renamed_srcs: Dict[int, Tuple] = {}
        #: PCs after whose fetch the next fetch PC is skippable: the one
        #: fetch that can change the skip engine's outcome for the warp
        revisit_after = set()
        for inst in program:
            srcs = tuple(k for k in inst.sb_srcs if k in self._renamed_keys)
            if srcs:
                self._renamed_srcs[inst.pc] = srcs
            if inst.pc + INSTRUCTION_BYTES in skip_pcs and not (
                inst.is_branch or inst.is_exit or inst.is_barrier
            ):
                revisit_after.add(inst.pc)
        self._revisit_after = frozenset(revisit_after)
        #: one skip token per skippable PC, shared by every skip of it
        #: (a token is never executed, so nothing writes to it)
        self._skip_tokens = {
            pc: IBufferEntry(program.at(pc), skip_token=True) for pc in skip_pcs
        }

    def on_tb_launch(self, tb_rt) -> None:
        tb_rt.frontend_state = _TBState(
            num_warps=len(tb_rt.warps),
            cfg=self.cfg,
            rf_banks=self.sm.config.rf_banks,
            rename_ports=self.sm.config.rename_ports,
            version_table_ports=self.sm.config.version_table_ports,
        )

    # -- helpers --------------------------------------------------------------

    def _bypass_pending(self, tb_rt, pc: int) -> bool:
        return any(pc in w.bypass_pcs for w in tb_rt.warps if not w.exited)

    # -- the skip engine (runs in parallel with the fetch scheduler) ----------

    def fetch_cycle(self, cycle: int) -> None:
        wake_queue = self.wake_queue
        if not wake_queue:
            # None is fixed at bind time: nothing ever skips or blocks.
            return  # otherwise no warp is due a visit this cycle
        skip_pcs = self.skip_pcs
        loads_disabled = self._global_loads_disabled
        global_load_pcs = self._global_load_pcs
        pending = self._leader_pending_fetch
        blocking = self._blocking
        candidates: List[Tuple[object, tuple]] = []
        entry_of: Dict[tuple, SkipTableEntry] = {}
        # Visit the queued warps in TB-then-warp order.  The early exit,
        # a park and an election leave the warp's outcome fixed until an
        # event queues it again; "wait" and "fetch" are re-probed next
        # cycle, and a skip re-queues the warp when its new fetch PC is
        # skippable (_skip_group).
        for wrt in wake_queue.drain():
            warp = wrt.warp
            if warp.exited:
                continue
            tb_rt = wrt.tb_rt
            st = tb_rt.frontend_state
            pc = wrt.fetch_pc
            # Fetch readiness and skip eligibility, from the warp's own
            # fields (filter_fetch asks the same).
            if (
                pc not in skip_pcs
                or wrt.cf_stalled
                or wrt.branch_sync_blocked
                or warp.at_barrier
                or pc in wrt.bypass_pcs
                or (loads_disabled and pc in global_load_pcs)
                or warp.warp_id not in st.majority.on_path
                or warp.has_simd_divergence
            ):
                if wrt.skip_blocked:
                    wrt.set_skip_blocked(False)
                wrt.skip_parked = False
                wrt.skip_entry = None
                if pending:
                    pending.pop(wrt, None)
                continue
            if wrt.skip_parked:
                # Parked in the warps-waiting bitmask: nothing that
                # could change its classification has happened since
                # (a wake event clears the bit), so skip the probe.
                continue
            if pending.get(wrt) == pc:
                continue  # already elected; waiting for the fetch stage
            entry = wrt.skip_entry
            if entry is not None and entry.pc == pc and st.table.touch(entry, cycle):
                # Woken from the bitmask: its arrival's probe already
                # decided that it follows this entry.  LeaderWB skips
                # it; another entry's event leaves it parked.
                state = "skip" if entry.leader_wb else "park"
            else:
                state, entry = self._classify(cycle, tb_rt, st, wrt, pc)
            if state == "skip":
                wrt.skip_entry = None
                key = (tb_rt.seq, pc)
                candidates.append((wrt, key))
                entry_of[key] = entry
                # Blocked only if the coalescer defers it: a serviced
                # skip would clear the flag again at once.
                blocking.add(wrt)
            elif state == "wait" or state == "park":
                if not wrt.skip_blocked:
                    # One probe per arrival; the warps-waiting bitmask
                    # parks the warp without re-probing (4.3.2).
                    self.sm.stats.energy_events[EnergyEvent.SKIP_TABLE_PROBE] += 1
                    wrt.set_skip_blocked(True)
                # "park" has a guaranteed wake event (the leader's
                # writeback); "wait" reasons are re-checked per cycle.
                if state == "park":
                    wrt.skip_parked = True
                    wrt.skip_entry = entry
                else:
                    wrt.skip_entry = None
                    wake_queue.revisit(wrt)
            else:  # "lead", or "fetch": execute privately
                wrt.skip_entry = None
                if wrt.skip_blocked:
                    wrt.set_skip_blocked(False)
                if state == "lead":
                    pending[wrt] = pc
                else:
                    wake_queue.revisit(wrt)

        if not candidates:
            return
        serviced, deferred = self.coalescer.arbitrate(candidates)
        self.sm.stats.energy_events[EnergyEvent.PC_COALESCER] += 1
        for key, warps in serviced:
            self._skip_group(entry_of[key], warps)
        for wrt, _key in deferred:
            if wrt in blocking:
                wrt.set_skip_blocked(True)
            wake_queue.revisit(wrt)
        blocking.clear()

    def _classify(
        self, cycle, tb_rt, st: _TBState, wrt, pc: int
    ) -> Tuple[str, Optional[SkipTableEntry]]:
        """Decide what a majority-path warp at skippable ``pc`` does, and
        with which skip-table entry (probing the table once)."""
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
                return "wait", None
            sync_required = (not st.rename.can_allocate()) or self.cfg.sync_on_write
            if st.table.full:
                victim = st.table.eviction_victim()
                if victim is None:
                    return "fetch", None  # nothing evictable: execute privately
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
                return "fetch", None  # table full: execute privately, no skip
            entry.instance = expected
            self.sm.stats.energy_events[EnergyEvent.SKIP_TABLE_WRITE] += 1
            if sync_required:
                entry.warps_waiting.add(warp_id)
                self._maybe_release_sync(tb_rt, st, entry)
                if entry.sync_required:
                    return "wait", entry
            return "lead", entry
        if expected > entry.instance:
            # The warp already covered this instance (skipped it, or
            # executed it privately after a cancellation); it is at a
            # *later* instance — wait for the entry to retire.
            return "wait", entry
        if expected < entry.instance:
            # The warp missed instances that no longer have entries
            # (cancelled while it was away): catch up privately, one
            # instance per arrival.
            return "fetch", entry
        if entry.sync_required:
            entry.warps_waiting.add(warp_id)
            self._maybe_release_sync(tb_rt, st, entry)
            if entry.sync_required:
                return "wait", entry
            # Fall through: sync released; re-classify below.
        if entry.leader_warp == warp_id:
            return ("lead" if not entry.leader_wb else "wait"), entry
        if not entry.leader_wb:
            # The dominant wait: a follower parked until LeaderWB.  The
            # writeback (or a cancellation) is the only event that can
            # change this answer, and both wake the TB's parked warps —
            # so the scan need not re-probe every cycle.
            return "park", entry
        return "skip", entry

    def _maybe_release_sync(self, tb_rt, st: _TBState, entry: SkipTableEntry) -> None:
        members = st.majority.on_path
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
            blocking = self._blocking
            for w in tb_rt.warps:
                # A skip candidate of the running pass counts as blocked.
                if w.warp.warp_id in members and (w.skip_blocked or w in blocking):
                    blocking.discard(w)
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
        members = st.majority.on_path
        for w in tb_rt.warps:
            wid = w.warp.warp_id
            if wid in members and st.rename.count(wid, key) < entry.instance:
                w.bypass_pcs.add(entry.pc)
                self._blocking.discard(w)
                w.set_skip_blocked(False)
                w.wake()

    def _skip_group(self, entry: SkipTableEntry, warps: List) -> None:
        """Perform the serviced follower skips of one coalesced PC; each
        warp re-queues itself when its new fetch PC is skippable or its
        skip could not be made this cycle."""
        st: _TBState = warps[0].tb_rt.frontend_state
        revisit = self.wake_queue.revisit
        # The same entry serves the whole group, so one probe checks it
        # for all, stamping it 0 as a lookup without a cycle does.
        if not st.table.touch(entry):
            # Evicted after its probe, later in the same pass: the
            # warps execute the instruction privately (they hold a
            # bypass for it now).
            for wrt in warps:
                wrt.set_skip_blocked(True)
                revisit(wrt)
            return
        sm = self.sm
        stats = sm.stats
        energy = stats.energy_events
        pc = entry.pc
        key = self.program.at(pc).dest_key
        next_pc = pc + INSTRUCTION_BYTES
        skip_next = next_pc in self.skip_pcs
        token = self._skip_tokens[pc]
        budget = st.version_budget if st.version_budget.ports is not None else None
        skipped = 0
        kind = None
        for wrt in warps:
            if budget is not None and not budget.acquire(sm.cycle):
                # Finite version-table ports: the skip engine already
                # spent this cycle's accesses on other followers.  The
                # warp stays skip-blocked (not parked) and re-arbitrates
                # next cycle.
                stats.version_table_port_stalls += 1
                sm.note_activity()
                wrt.set_skip_blocked(True)
                revisit(wrt)
                continue
            warp_id = wrt.warp.warp_id
            # Every follower of the group reads the entry's one version.
            kind = st.rename.follower_skip(warp_id, key).kind
            entry.warps_done.add(warp_id)
            wrt.fetch_pc = next_pc
            if wrt.skip_blocked:
                wrt.set_skip_blocked(False)
            if sm.pipeline_trace is not None:
                sm.pipeline_trace.record(
                    sm.cycle, sm.sm_id, wrt.tb_rt.tb.tb_index, warp_id, "S", pc,
                )
            # Architectural PC must advance past the skipped instruction
            # *in program order*: enqueue a zero-cost skip token that
            # bumps the PC when it reaches the head of the I-buffer.
            wrt.push_entry(token)
            if skip_next:
                revisit(wrt)
            skipped += 1
        if skipped:
            # The group's counts, in the order a single skip adds them.
            stats.follower_skips += skipped
            stats.instructions_skipped += skipped
            stats.skipped_by_class[kind] += skipped
            energy[EnergyEvent.SKIP_TABLE_PROBE] += skipped
            energy[EnergyEvent.RENAME_WRITE] += skipped
            energy[EnergyEvent.VERSION_TABLE] += skipped
            sm.pipeline.activity += skipped
            # No skip before the group's last can retire the entry: the
            # group's later warps still owe it.
            self._maybe_retire(st, entry, key)

    def _maybe_retire(self, st: _TBState, entry: SkipTableEntry, key) -> None:
        """Remove ``entry`` (writing ``key``) once every majority warp
        has covered its instance."""
        # Highest warp id first: in the skip engine's TB-then-warp order
        # it usually reaches a PC last, so an entry still owed is mostly
        # settled by the first check.  The checks only read, so their
        # order cannot change the answer.
        if entry.leader_wb and st.rename.all_reached(
            reversed(st.majority.members()), key, entry.instance
        ):
            st.table.remove(entry.pc)

    # -- fetch-stage integration --------------------------------------------------

    def filter_fetch(self, wrt, pc: int) -> FetchAction:
        warp = wrt.warp
        # The skip engine's eligibility test (fetch_cycle), on the
        # warp's own fields.
        if (
            pc not in self.skip_pcs
            or pc in wrt.bypass_pcs
            or (self._global_loads_disabled and pc in self._global_load_pcs)
            or warp.exited
            or warp.warp_id not in wrt.tb_rt.frontend_state.majority.on_path
            or warp.has_simd_divergence
        ):
            action = FetchAction.FETCH
        elif self._leader_pending_fetch.get(wrt) == pc:
            action = FetchAction.FETCH_LEADER
        elif wrt.skip_blocked:
            return FetchAction.WAIT
        else:
            return FetchAction.HANDLED
        if self._gate_ports:
            return self._gate_rename_ports(wrt, pc, action)
        return action

    def _gate_rename_ports(self, wrt, pc: int, action: FetchAction) -> FetchAction:
        """Finite ``rename_ports``: a fetch whose decode would probe more
        rename-table entries than the cycle has ports left must wait."""
        st = wrt.tb_rt.frontend_state
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
        pc = inst.pc
        if is_leader:
            self._leader_pending_fetch.pop(wrt, None)
        if pc in self._revisit_after or wrt.skip_parked:
            # The new fetch PC is skippable, or the warp still holds a
            # park bit: the skip engine's next pass decides again.
            self.wake_queue.revisit(wrt)
        srcs = self._renamed_srcs.get(pc)
        key = inst.dest_key
        if srcs is None and key not in self._renamed_keys:
            return None  # nothing this fetch reads or writes can be renamed
        st: _TBState = wrt.tb_rt.frontend_state
        warp_id = wrt.warp.warp_id
        overrides = None
        if srcs is not None and st.rename.has_mappings():
            overrides = self._capture_sources(st, warp_id, srcs)
        if key not in self._renamed_keys:
            return overrides
        if inst.guard is not None:
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
        if is_leader:
            # Reserve the version number in fetch order; the value is
            # produced at writeback.  WAW scoreboarding keeps same-key
            # writebacks in program order, so a FIFO per key suffices.
            version = st.rename.reserve_version(warp_id, key)
            pending = st.pending_leader.setdefault(warp_id, {})
            pending.setdefault(key, []).append(version)
        elif pc in self.skip_pcs and warp_id in st.majority.on_path:
            # Skippable instance executed privately (bypass / table
            # full): advance this warp's write count to stay aligned.
            st.rename.private_instance_write(warp_id, key)
        else:
            st.rename.private_write(warp_id, key)
        return overrides

    def _capture_sources(self, st: _TBState, warp_id: int, srcs) -> Optional[Dict]:
        """Capture renamed source values in fetch order (Section 4.3.1:
        the rename table is probed prior to the baseline mapping).
        :meth:`on_fetch` calls it only for an instruction with sources
        the rename table can hold, while the TB holds a mapping."""
        pending = st.pending_leader.get(warp_id, {})
        rename = st.rename
        regs: Dict[str, np.ndarray] = {}
        preds: Dict[str, np.ndarray] = {}
        banks: List[int] = []
        # The renamable source keys, registers before predicates, in
        # operand order.
        for key in srcs:
            if pending.get(key):
                continue  # an older in-flight leader write supersedes
            vv = rename.read(warp_id, key)
            if vv is not None:
                kind, name = key
                if kind == "r":
                    regs[name] = vv.value
                else:
                    preds[name] = vv.value.astype(bool)
                banks.append(rename.bank_of(vv.preg))
        if not regs and not preds:
            return None
        reads = len(regs) + len(preds)
        energy = self.sm.stats.energy_events
        energy[EnergyEvent.RENAME_READ] += reads
        energy[EnergyEvent.VERSION_TABLE] += reads
        return {"regs": regs, "preds": preds, "banks": banks}

    # -- writeback: LeaderWB ------------------------------------------------------

    def on_writeback(self, wrt, ib_entry) -> None:
        inst = ib_entry.inst
        st: _TBState = wrt.tb_rt.frontend_state
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
        if (
            entry is not None
            and entry.leader_warp == warp_id
            and not entry.leader_wb
            and result.dest_value is not None
            and version is not None
            and st.rename.can_allocate()
            # a full write: no hardware lane outside the executed ones
            and not np.count_nonzero(wrt.warp.hw_mask > result.exec_mask)
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
            self._maybe_retire(st, entry, key)
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
        st: _TBState = tb_rt.frontend_state
        warp_id = wrt.warp.warp_id
        if not self.skip_pcs or warp_id not in st.majority.on_path:
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
        if not mats:
            return
        hw = wrt.warp.hw_mask
        if np.count_nonzero(hw) == hw.size:
            hw = None  # a full warp: each write needs no mask test
        registers = wrt.warp.registers
        for mat in mats:
            kind, name = mat.key
            if kind == "r":
                registers.write(name, mat.value, mask=hw)
            else:
                registers.write_pred(name, mat.value, mask=hw)
            if count_energy:
                self.sm.stats.energy_events[EnergyEvent.RF_WRITE] += 1

    def _leave_path(self, tb_rt, wrt) -> None:
        """Section 4.3.5: a warp leaving the majority path copies its
        redundant register values into warp-private space and clears its
        rename state."""
        st: _TBState = tb_rt.frontend_state
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
            self._maybe_retire(st, entry, self.program.at(entry.pc).dest_key)

    # -- TB-wide events -----------------------------------------------------------

    def on_syncthreads(self, tb_rt) -> None:
        if not self.skip_pcs:
            return
        st: _TBState = tb_rt.frontend_state
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
            w.skip_entry = None
            w.bypass_pcs.clear()
            w.wake()

    def on_warp_exit(self, wrt) -> None:
        tb_rt = wrt.tb_rt
        st: _TBState = tb_rt.frontend_state
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
        st: _TBState = tb_rt.frontend_state
        removed = st.table.invalidate_loads()
        self.sm.stats.load_entries_invalidated += len(removed)
        members = st.majority.on_path
        for entry in removed:
            for w in tb_rt.warps:
                wid = w.warp.warp_id
                if wid in members and wid not in entry.warps_done:
                    w.bypass_pcs.add(entry.pc)
                    w.set_skip_blocked(False)
                    w.wake()
