"""GPU configuration (Table 2) and scaled variants for experiments.

``PASCAL_GTX1080TI`` mirrors Table 2: 28 SMs, 64 warps/SM, 32 TBs/SM,
32-wide SIMD, 4 GTO warp schedulers per SM, 96 KB shared memory, 2K
vector registers per SM, and the published register-file energies
(14.2 pJ/read, 25.9 pJ/write).

A pure-Python cycle model cannot sweep 28 SMs over 13 benchmarks x 6
configs in reasonable time, so experiments use :func:`small_config`
(fewer SMs, same per-SM microarchitecture).  Speedups are per-SM
phenomena — every config in a comparison uses the same scaling, so
relative results are preserved; DESIGN.md documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional


class ConfigError(ValueError):
    """A config dict, override or field value does not fit the typed
    spine (re-exported by :mod:`repro.config`)."""


#: warp scheduling policies the issue stage implements
SCHEDULER_POLICIES = ("gto", "lrr")


def check_minimums(cfg: Any, root: str) -> None:
    """Reject a config dataclass that describes no machine.

    Every ``int`` field must be at least 1, except latencies
    (``*_latency``), which may be 0; a port count typed
    ``Optional[int]`` is ``None`` (ideal) or at least 1.  The
    :class:`ConfigError` names the dotted path ``<root>.<field>``.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, int) and not isinstance(value, bool):
            floor = 0 if f.name.endswith("_latency") else 1
            if value < floor:
                raise ConfigError(f"{root}.{f.name}: expected >= {floor}, got {value}")


@dataclass(frozen=True)
class GPUConfig:
    """Microarchitectural parameters of the simulated GPU."""

    name: str = "pascal"
    # -- chip-level ------------------------------------------------------
    num_sms: int = 28
    warp_size: int = 32
    max_warps_per_sm: int = 64
    max_tbs_per_sm: int = 32
    vector_registers_per_sm: int = 2048
    # -- frontend ----------------------------------------------------------
    fetch_warps_per_cycle: int = 1      # fetch scheduler initiates one I-cache fetch
    fetch_width: int = 2                # instructions brought in per fetch
    ibuffer_entries: int = 2            # per-warp I-buffer (Section 3)
    # -- issue ---------------------------------------------------------------
    num_schedulers: int = 4             # warp schedulers per SM (Table 2)
    issue_width: int = 2                # "at most two instructions from one warp each"
    #: warp scheduling policy: "gto" (greedy-then-oldest, Table 2) or
    #: "lrr" (loose round-robin).  Section 5: the paper swept schedulers
    #: and found these regular applications insensitive, with GTO best.
    scheduler_policy: str = "gto"
    # -- execution latencies (cycles) -------------------------------------
    alu_latency: int = 4
    sfu_latency: int = 20
    # -- register file ------------------------------------------------------
    rf_banks: int = 16
    # -- DARSIE structure ports (Section 4.3) -------------------------------
    #: rename-table read ports available to the decode/fetch path per
    #: cycle.  None = ideal (unbounded, the paper's model); a finite
    #: value makes warps whose rename reads exceed the budget wait,
    #: counted in ``SimStats.rename_port_stalls``.
    rename_ports: Optional[int] = None
    #: version-table ports available to the skip engine per cycle.
    #: None = ideal; a finite value bounds how many follower skips the
    #: engine can service per cycle (``version_table_port_stalls``).
    version_table_ports: Optional[int] = None
    # -- memory system -------------------------------------------------------
    shared_latency: int = 24
    shared_banks: int = 32
    l1_hit_latency: int = 28
    l1_lines: int = 256                # 32 KB of 128B lines
    l1_assoc: int = 4
    line_bytes: int = 128
    dram_latency: int = 320
    dram_requests_per_cycle: int = 2   # per-SM bandwidth cap on in-flight issues
    # -- safety ---------------------------------------------------------------
    #: cycle budget: raise :class:`repro.timing.gpu.DeadlockError` when the
    #: run reaches this cycle
    max_cycles: int = 5_000_000
    #: forward-progress window: raise :class:`repro.timing.gpu.DeadlockError`
    #: when no instruction executes for this many cycles
    watchdog_cycles: int = 50_000

    def __post_init__(self) -> None:
        check_minimums(self, "gpu")
        if self.scheduler_policy not in SCHEDULER_POLICIES:
            raise ConfigError(
                f"gpu.scheduler_policy: expected one of {SCHEDULER_POLICIES}, "
                f"got {self.scheduler_policy!r}"
            )

    def scaled(self, **overrides) -> "GPUConfig":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)


#: The paper's baseline card (Table 2).
PASCAL_GTX1080TI = GPUConfig(name="gtx1080ti")


def small_config(num_sms: int = 1, **overrides) -> GPUConfig:
    """Experiment-scale config: same SM microarchitecture, fewer SMs."""
    return PASCAL_GTX1080TI.scaled(name=f"pascal-{num_sms}sm", num_sms=num_sms, **overrides)
