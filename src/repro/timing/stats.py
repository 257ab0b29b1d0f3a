"""Simulation statistics and energy-event counting.

Every microarchitectural event that costs energy is counted here by the
timing core; :mod:`repro.energy.model` turns the counts into joules.
Keeping counting separate from costing lets the energy model be swept
without re-simulating.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict


class EnergyEvent(enum.Enum):
    """Countable energy events (GPUWattch-style accounting)."""

    ICACHE_FETCH = "icache_fetch"
    DECODE = "decode"
    ISSUE = "issue"
    RF_READ = "rf_read"
    RF_WRITE = "rf_write"
    ALU_OP = "alu_op"
    SFU_OP = "sfu_op"
    SHARED_ACCESS = "shared_access"
    L1_ACCESS = "l1_access"
    DRAM_ACCESS = "dram_access"
    # DARSIE-specific overhead events (Section 6.1: "most of the overhead
    # comes from accessing the PC Skip Table, majority path mask and
    # register rename table").
    SKIP_TABLE_PROBE = "skip_table_probe"
    SKIP_TABLE_WRITE = "skip_table_write"
    PC_COALESCER = "pc_coalescer"
    RENAME_READ = "rename_read"
    RENAME_WRITE = "rename_write"
    VERSION_TABLE = "version_table"
    MAJORITY_MASK = "majority_mask"

    # Members are singletons compared by identity, so the C-level
    # identity hash is consistent with equality and spares the hot
    # ``energy_events[...] += 1`` a Python-level ``Enum.__hash__`` call.
    # A ``Counter`` iterates in insertion order whatever the hashes, so
    # energy sums are unchanged.
    __hash__ = object.__hash__


@dataclass
class SimStats:
    """Aggregated statistics of one timing simulation."""

    #: wall clock, not work: SMs run concurrently, so merging takes the max
    cycles: int = field(default=0, metadata={"merge": "max"})
    instructions_fetched: int = 0
    instructions_decoded: int = 0
    instructions_issued: int = 0
    instructions_executed: int = 0
    #: instructions removed before fetch (DARSIE / DAC-IDEAL)
    instructions_skipped: int = 0
    #: instructions whose execution was eliminated at issue (UV)
    executions_eliminated: int = 0
    #: skipped-instruction breakdown by redundancy class name
    skipped_by_class: Counter = field(default_factory=Counter)
    eliminated_by_class: Counter = field(default_factory=Counter)
    #: cycles warps spent blocked on DARSIE synchronization
    sync_wait_cycles: int = 0
    branch_barriers: int = 0
    rf_bank_conflicts: int = 0
    darsie_bank_conflicts: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    shared_bank_conflict_cycles: int = 0
    leaders_elected: int = 0
    follower_skips: int = 0
    freelist_syncs: int = 0
    #: structural stalls from finite DARSIE structure ports
    #: (``GPUConfig.rename_ports`` / ``version_table_ports``; both zero
    #: under the default ideal-port configuration)
    rename_port_stalls: int = 0
    version_table_port_stalls: int = 0
    load_entries_invalidated: int = 0
    warps_left_majority: int = 0
    #: branches that actually split a warp (pushed a reconvergence entry)
    divergent_branches: int = 0
    #: instructions issued while the warp's SIMT stack was divergent —
    #: the serialized work control-flow melding (DARM) removes
    divergence_serialized_instructions: int = 0
    energy_events: Counter = field(default_factory=Counter)

    @property
    def total_instruction_slots(self) -> int:
        """Baseline-equivalent work: executed + skipped instructions."""
        return self.instructions_executed + self.instructions_skipped

    def merge(self, other: "SimStats") -> None:
        """Accumulate another stats object into this one (multi-SM).

        Merge semantics come from the field definitions, so a newly
        added counter is aggregated automatically: ``Counter`` fields
        are element-wise added, ``int`` fields are summed, and a field
        declared with ``metadata={"merge": "max"}`` (wall-clock-like
        quantities) takes the maximum.  A field of any other type is a
        programming error and raises rather than being silently dropped.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.metadata.get("merge") == "max":
                setattr(self, f.name, max(mine, theirs))
            elif isinstance(mine, Counter):
                mine.update(theirs)
            elif isinstance(mine, int):
                setattr(self, f.name, mine + theirs)
            else:
                raise TypeError(
                    f"SimStats.{f.name}: no merge rule for {type(mine).__name__}"
                )

    def to_dict(self) -> Dict[str, object]:
        """Every field as plain JSON data: each ``Counter`` becomes a
        dict sorted by key, with energy events named by their value."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counter):
                value = dict(sorted(
                    (key.value if isinstance(key, EnergyEvent) else key, n)
                    for key, n in value.items()
                ))
            out[f.name] = value
        return out
