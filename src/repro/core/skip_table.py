"""The PC Skip Table (Section 4.3.2).

One entry per PC currently being skipped in a TB.  Each entry holds the
five architectural fields of Section 4.3.2:

1. ``pc`` — the program counter being skipped;
2. ``warps_waiting`` — warps synchronizing at this PC (used when the
   rename freelist empties, or under the sync-on-write ablation);
3. the majority-path bitmask lives in :class:`~repro.core.majority.
   MajorityPathMask` (referenced, not duplicated, per TB);
4. ``is_load`` — loads must be removed when stores / global
   communication execute (Section 4.4);
5. ``leader_wb`` — followers may only leave the instruction once the
   leader has written the redundant value back.

A TB owns :attr:`PCSkipTable.capacity` entries (8 in the paper's area
estimate), "replaced dynamically": an entry with no waiting warps can be
evicted to make room; a PC without an entry simply is not skipped, which
is always safe (the warp executes the instruction itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class SkipTableEntry:
    """One Skip-PC-Table entry."""

    pc: int
    leader_warp: int
    is_load: bool = False
    leader_wb: bool = False
    #: which dynamic instance of this PC the entry represents — the
    #: destination register's write count this instance produces.  Warps
    #: compare their own count against it: equal-next means "skip here",
    #: greater means "past this instance, wait for retirement", smaller
    #: means "missed instances, execute privately to catch up".
    instance: int = 0
    #: warps blocked at this PC waiting for synchronization
    warps_waiting: Set[int] = field(default_factory=set)
    #: warps that have already skipped this entry (leader included once
    #: it executes); the entry retires when all majority warps are here.
    warps_done: Set[int] = field(default_factory=set)
    #: entry acts as a TB synchronization point (freelist exhaustion or
    #: the sync-on-write ablation)
    sync_required: bool = False
    #: LRU stamp for dynamic replacement
    last_use: int = 0


class PCSkipTable:
    """Per-TB skip table with dynamic replacement."""

    def __init__(self, capacity: int = 8):
        self.capacity = capacity
        self._entries: Dict[int, SkipTableEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, pc: int, now: int = 0) -> Optional[SkipTableEntry]:
        """The entry for ``pc``, stamped as used at cycle ``now``.

        A lookup without ``now`` stamps 0, the oldest possible use, so
        the entry becomes the first eviction candidate.  The leader
        writeback looks up that way today, and a follower skip touches
        its entry that way (:meth:`touch`); true LRU would evict those
        entries last."""
        entry = self._entries.get(pc)
        if entry is not None:
            entry.last_use = now
        return entry

    def touch(self, entry: SkipTableEntry, now: int = 0) -> bool:
        """Stamp ``entry`` as used at cycle ``now``, as :meth:`lookup`
        of its PC would, if the table still holds it; False (and no
        stamp) once it was removed."""
        if self._entries.get(entry.pc) is not entry:
            return False
        entry.last_use = now
        return True

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def insert(
        self,
        pc: int,
        leader_warp: int,
        is_load: bool,
        now: int = 0,
        sync_required: bool = False,
    ) -> Optional[SkipTableEntry]:
        """Create an entry for ``pc``; returns None when the table is
        full (the caller decides what to evict — evicting an entry has
        side effects on warps that have not consumed it yet)."""
        if pc in self._entries:
            raise ValueError(f"duplicate skip entry for pc {pc:#x}")
        if self.full:
            return None
        entry = SkipTableEntry(
            pc=pc,
            leader_warp=leader_warp,
            is_load=is_load,
            sync_required=sync_required,
            last_use=now,
        )
        self._entries[pc] = entry
        return entry

    def remove(self, pc: int) -> Optional[SkipTableEntry]:
        return self._entries.pop(pc, None)

    def eviction_victim(self) -> Optional[SkipTableEntry]:
        """The LRU entry with no warps waiting on it, or None.

        The caller must retire/cancel the victim itself (warps that have
        not consumed it need to execute the instruction privately)."""
        candidates = [
            e for e in self._entries.values() if not e.warps_waiting and e.leader_wb
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.last_use)

    def invalidate_loads(self) -> List[SkipTableEntry]:
        """Remove all load entries (store / global-communication event).

        Returns the removed entries so the frontend can release any warps
        waiting on them (they will execute the load themselves)."""
        removed = [e for e in self._entries.values() if e.is_load]
        for entry in removed:
            del self._entries[entry.pc]
        return removed

    def entries(self) -> List[SkipTableEntry]:
        return list(self._entries.values())
