"""Port-limited DARSIE structures: the PortBudget primitive, and the
pinned effect of finite rename/version-table ports on real workloads.

Defaults (``rename_ports=None`` / ``version_table_ports=None``) model
ideal structures and must leave the golden store bit-identical; finite
values introduce structural stalls counted in
``SimStats.rename_port_stalls`` / ``version_table_port_stalls``.
"""

import dataclasses

from repro.core.rename import PortBudget
from repro.harness.runner import WorkloadRunner
from repro.timing.config import GPUConfig
from repro.workloads import build_workload


class TestPortBudget:
    def test_ideal_budget_always_grants(self):
        b = PortBudget(None)
        assert all(b.acquire(0, n) for n in (1, 8, 1000))

    def test_finite_budget_consumes_within_cycle(self):
        b = PortBudget(2)
        assert b.acquire(5) and b.acquire(5)
        assert not b.acquire(5)

    def test_budget_resets_each_cycle(self):
        b = PortBudget(1)
        assert b.acquire(1)
        assert not b.acquire(1)
        assert b.acquire(2)

    def test_zero_reads_are_free(self):
        b = PortBudget(1)
        assert b.acquire(0, 0)
        assert b.acquire(0, 1)

    def test_wide_request_oversubscribes_rather_than_deadlocks(self):
        # An instruction needing more reads than the structure has ports
        # must still make progress (the hardware would serialize the
        # reads over the cycle), or the pipeline would stall forever.
        b = PortBudget(2)
        assert b.acquire(0, 5)
        # ... but it consumed the whole cycle's bandwidth.
        assert not b.acquire(0, 1)

    def test_wide_request_waits_behind_partial_use(self):
        b = PortBudget(2)
        assert b.acquire(0, 1)
        assert not b.acquire(0, 5)


def _run(abbr, scale, **gpu_overrides):
    runner = WorkloadRunner(build_workload(abbr, scale))
    if gpu_overrides:
        cfg = dataclasses.replace(runner.gpu_config, **gpu_overrides)
        runner = WorkloadRunner(build_workload(abbr, scale), gpu_config=cfg)
    return runner.run("DARSIE")


class TestPortContention:
    def test_default_config_is_ideal(self):
        cfg = GPUConfig()
        assert cfg.rename_ports is None
        assert cfg.version_table_ports is None

    def test_ideal_runs_never_stall_on_ports(self):
        res = _run("LIB", "tiny")
        assert res.stats.rename_port_stalls == 0
        assert res.stats.version_table_port_stalls == 0

    def test_finite_rename_ports_stall_strictly_more(self):
        # LIB promotes aggressively (many renamed sources fetched
        # back-to-back), so one rename read port is not enough.
        ideal = _run("LIB", "tiny")
        limited = _run("LIB", "tiny", rename_ports=1)
        assert limited.stats.rename_port_stalls > ideal.stats.rename_port_stalls
        assert limited.stats.rename_port_stalls == 14  # pinned

    def test_finite_version_ports_change_cycles_pinned(self):
        # Table 1's CONVTEX at the small scale: coalesced follower
        # groups hit the version table together, so one read port
        # serializes skips and the cycle count measurably moves.
        ideal = _run("CONVTEX", "small")
        limited = _run("CONVTEX", "small", version_table_ports=1)
        assert ideal.cycles == 1942  # pinned ideal baseline
        assert limited.cycles == 2036  # pinned: structural stalls cost cycles
        assert limited.stats.version_table_port_stalls == 6297
        assert ideal.stats.version_table_port_stalls == 0
