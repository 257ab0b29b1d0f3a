"""Per-SM memory system: transaction coalescer, L1 cache, DRAM latency.

Global accesses from a warp are coalesced into 128-byte transactions
(the granularity NVIDIA GPUs have used since Fermi).  Each transaction
probes a set-associative L1; misses pay a fixed DRAM latency and consume
per-cycle DRAM issue bandwidth, which creates queueing under contention.

Shared-memory accesses model the classic 32-bank conflict rule: the
access takes one inner cycle per maximum number of distinct words mapped
to the same bank.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

import numpy as np

from repro.timing.config import GPUConfig
from repro.timing.stats import EnergyEvent, SimStats


def coalesce_transactions(addresses: np.ndarray, mask: np.ndarray, line_bytes: int) -> List[int]:
    """Unique memory-transaction line addresses for one warp access,
    in ascending order (the L1 / DRAM-queue probe order depends on it)."""
    active = addresses[mask]
    if active.size == 0:
        return []
    return sorted(set((active // line_bytes).tolist()))


def shared_bank_conflict_cycles(
    addresses: np.ndarray, mask: np.ndarray, num_banks: int
) -> int:
    """Extra cycles from shared-memory bank conflicts (0 if conflict-free).

    The bank of word-address ``w`` is ``w % num_banks``; lanes hitting
    the same bank at *different* words serialise.  Broadcast (same word)
    is free, as on real hardware.
    """
    # At most warp_size (32) lanes: plain list/set/dict arithmetic beats
    # numpy calls at this size.  A full mask selects every lane, so it
    # needs no masked copy.
    if np.count_nonzero(mask) == mask.size:
        active = addresses.tolist()
    else:
        active = addresses[mask].tolist()
    if not active:
        return 0
    if max(active) // 4 - min(active) // 4 < num_banks:
        # Broadcast, or distinct words within one bank-width window:
        # each word has a bank of its own.
        return 0
    per_bank: dict = {}
    worst = 1
    for word in {a // 4 for a in active}:
        bank = word % num_banks
        n = per_bank.get(bank, 0) + 1
        per_bank[bank] = n
        if n > worst:
            worst = n
    return worst - 1


class L1Cache:
    """Set-associative, LRU, write-through no-allocate L1 data cache."""

    def __init__(self, lines: int, assoc: int, line_bytes: int):
        self.num_sets = max(1, lines // assoc)
        self.assoc = assoc
        self.line_bytes = line_bytes
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]

    def access(self, line_addr: int, is_write: bool) -> bool:
        """Probe for ``line_addr``; returns True on hit.  Reads allocate."""
        idx = line_addr % self.num_sets
        s = self._sets[idx]
        if line_addr in s:
            s.move_to_end(line_addr)
            return True
        if is_write:
            return False  # write-through, no write-allocate
        s[line_addr] = True
        if len(s) > self.assoc:
            s.popitem(last=False)
        return False

    def flush(self) -> None:
        for s in self._sets:
            s.clear()


class MemorySystem:
    """Latency/bandwidth model shared by all warps of one SM."""

    def __init__(self, config: GPUConfig, stats: SimStats):
        self.config = config
        self.stats = stats
        self.l1 = L1Cache(config.l1_lines, config.l1_assoc, config.line_bytes)
        #: earliest cycle at which the next DRAM request may issue
        self._dram_free = 0.0

    def global_access(
        self, cycle: int, addresses: np.ndarray, mask: np.ndarray, is_write: bool
    ) -> int:
        """Issue a global access; returns the completion cycle."""
        lines = coalesce_transactions(addresses, mask, self.config.line_bytes)
        if not lines:
            return cycle + 1
        worst = cycle + 1
        energy = self.stats.energy_events
        for line in lines:
            energy[EnergyEvent.L1_ACCESS] += 1
            hit = self.l1.access(line, is_write)
            if hit and not is_write:
                self.stats.l1_hits += 1
                done = cycle + self.config.l1_hit_latency
            else:
                if not is_write:
                    self.stats.l1_misses += 1
                energy[EnergyEvent.DRAM_ACCESS] += 1
                # Bandwidth queue: each DRAM request occupies a slot of
                # 1/requests_per_cycle cycles at the memory controller.
                start = max(float(cycle), self._dram_free)
                self._dram_free = start + 1.0 / self.config.dram_requests_per_cycle
                done = int(start) + self.config.dram_latency
            worst = max(worst, done)
        return worst

    def shared_access(self, cycle: int, addresses: np.ndarray, mask: np.ndarray) -> int:
        """Issue a shared-memory access; returns the completion cycle."""
        self.stats.energy_events[EnergyEvent.SHARED_ACCESS] += 1
        conflicts = shared_bank_conflict_cycles(addresses, mask, self.config.shared_banks)
        self.stats.shared_bank_conflict_cycles += conflicts
        return cycle + self.config.shared_latency + conflicts
