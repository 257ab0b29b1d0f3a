"""Focused tests of SM-core internals: GTO, I-buffers, skip tokens."""

import numpy as np

from repro import (
    DarsieFrontend,
    Dim3,
    GlobalMemory,
    LaunchConfig,
    analyze_program,
    assemble,
    simulate,
    small_config,
)
from repro.timing.buffers import IBuffer, ZeroCostLedger
from repro.timing.core import IBufferEntry


class TestScoreboardKeys:
    def test_alu_keys(self):
        inst = assemble("mad.f32 $d, $a, $b, $c\nexit").instructions[0]
        assert set(inst.sb_srcs) == {("r", "a"), ("r", "b"), ("r", "c")}
        assert list(inst.sb_dests) == [("r", "d")]

    def test_guard_and_address_are_sources(self):
        inst = assemble("@$p0 st.global.f32 [$a + $i], $v\nexit").instructions[0]
        assert set(inst.sb_srcs) == {("r", "a"), ("r", "i"), ("r", "v"), ("p", "p0")}
        assert list(inst.sb_dests) == []

    def test_setp_dest_is_predicate(self):
        inst = assemble("setp.lt.u32 $p1, $a, $b\nexit").instructions[0]
        assert list(inst.sb_dests) == [("p", "p1")]


class TestIBufferAccounting:
    def test_free_and_token_entries_do_not_occupy_slots(self):
        prog = assemble("nop\nexit")
        inst = prog.instructions[0]
        ibuf = IBuffer(ZeroCostLedger())
        ibuf.push(IBufferEntry(inst=inst))
        ibuf.push(IBufferEntry(inst=inst, free=True))
        ibuf.push(IBufferEntry(inst=inst, skip_token=True))
        assert ibuf.buffered == 1

    def test_pop_and_clear_keep_counters_in_sync(self):
        prog = assemble("nop\nexit")
        inst = prog.instructions[0]
        ibuf = IBuffer(ZeroCostLedger())
        ibuf.push(IBufferEntry(inst=inst))
        ibuf.push(IBufferEntry(inst=inst, free=True))
        assert (ibuf.buffered, ibuf.zero_cost) == (1, 1)
        ibuf.pop()
        assert (ibuf.buffered, ibuf.zero_cost) == (0, 1)
        ibuf.pop()
        assert (ibuf.buffered, ibuf.zero_cost) == (0, 0)
        ibuf.push(IBufferEntry(inst=inst, skip_token=True))
        ibuf.clear()
        assert (ibuf.buffered, ibuf.zero_cost) == (0, 0)
        assert not ibuf

    def test_ledger_tracks_shared_population_and_detach(self):
        prog = assemble("nop\nexit")
        inst = prog.instructions[0]
        ledger = ZeroCostLedger()
        a, b = IBuffer(ledger), IBuffer(ledger)
        a.push(IBufferEntry(inst=inst, skip_token=True))
        a.push(IBufferEntry(inst=inst))
        b.push(IBufferEntry(inst=inst, free=True))
        assert ledger.total == 2
        a.pop()
        assert ledger.total == 1
        b.detach()
        assert ledger.total == 0
        # detached buffers keep their entries but no longer count
        assert len(b) == 1 and b.zero_cost == 0


class TestDeterminism:
    SRC = """
    .param tab
    .param out
        mul.u32 $a, %tid.x, 4
        add.u32 $a, $a, %param.tab
        ld.global.s32 $v, [$a]
        mul.u32 $o, %tid.y, %ntid.x
        add.u32 $o, $o, %tid.x
        shl.u32 $o, $o, 2
        add.u32 $o, $o, %param.out
        st.global.s32 [$o], $v
        exit
    """

    def _run(self, factory=None):
        prog = assemble(self.SRC)
        launch = LaunchConfig(grid_dim=Dim3(2), block_dim=Dim3(16, 16))
        mem = GlobalMemory(1 << 13)
        p = {"tab": mem.alloc_array(np.arange(16)), "out": mem.alloc(1024)}
        return simulate(prog, launch, mem, params=p, config=small_config(1),
                        frontend_factory=factory)

    def test_cycle_counts_are_deterministic(self):
        assert self._run().cycles == self._run().cycles

    def test_darsie_deterministic(self):
        prog = assemble(self.SRC)
        analysis = analyze_program(prog)
        a = self._run(lambda: DarsieFrontend(analysis))
        b = self._run(lambda: DarsieFrontend(analysis))
        assert a.cycles == b.cycles
        assert a.stats.instructions_skipped == b.stats.instructions_skipped


class TestEnergyCounters:
    def test_fetch_decode_issue_consistency(self):
        from repro.timing.stats import EnergyEvent

        res = TestDeterminism()._run()
        s = res.stats
        assert s.energy_events[EnergyEvent.DECODE] == s.instructions_decoded
        assert s.energy_events[EnergyEvent.ISSUE] == s.instructions_issued
        assert s.instructions_fetched == s.instructions_decoded
        # One I-cache probe serves up to fetch_width instructions.
        assert s.energy_events[EnergyEvent.ICACHE_FETCH] <= s.instructions_fetched

    def test_darsie_fetches_fewer(self):
        t = TestDeterminism()
        prog = assemble(t.SRC)
        analysis = analyze_program(prog)
        base = t._run()
        dar = t._run(lambda: DarsieFrontend(analysis))
        assert dar.stats.instructions_fetched < base.stats.instructions_fetched
        from repro.timing.stats import EnergyEvent

        assert (
            dar.stats.energy_events[EnergyEvent.ICACHE_FETCH]
            < base.stats.energy_events[EnergyEvent.ICACHE_FETCH]
        )
