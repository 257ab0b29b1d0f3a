"""Unit tests for the GPU configuration and statistics containers."""

import dataclasses
import json
from collections import Counter

import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, assemble, simulate
from repro.timing import EnergyEvent, PASCAL_GTX1080TI, SimStats, small_config


class TestConfig:
    def test_table2_defaults(self):
        c = PASCAL_GTX1080TI
        assert (c.num_sms, c.max_warps_per_sm, c.max_tbs_per_sm) == (28, 64, 32)
        assert c.warp_size == 32 and c.num_schedulers == 4

    def test_scaled_copy(self):
        c = PASCAL_GTX1080TI.scaled(num_sms=2)
        assert c.num_sms == 2
        assert PASCAL_GTX1080TI.num_sms == 28  # frozen original untouched

    def test_small_config(self):
        c = small_config(num_sms=3, alu_latency=6)
        assert c.num_sms == 3 and c.alu_latency == 6

    def test_hashable(self):
        assert hash(small_config(1)) == hash(small_config(1))


class TestStats:
    def test_energy_counting(self):
        s = SimStats()
        s.energy_events[EnergyEvent.RF_READ] += 3
        s.energy_events[EnergyEvent.RF_READ] += 1
        assert s.energy_events[EnergyEvent.RF_READ] == 4

    def test_total_instruction_slots(self):
        s = SimStats()
        s.instructions_executed = 70
        s.instructions_skipped = 30
        assert s.total_instruction_slots == 100

    def test_merge(self):
        a, b = SimStats(), SimStats()
        a.cycles, b.cycles = 10, 20
        a.instructions_executed, b.instructions_executed = 5, 7
        a.skipped_by_class["uniform"] = 2
        b.skipped_by_class["uniform"] = 3
        a.energy_events[EnergyEvent.DECODE] += 4
        b.energy_events[EnergyEvent.DECODE] += 6
        a.merge(b)
        assert a.cycles == 20          # max across SMs
        assert a.instructions_executed == 12
        assert a.skipped_by_class["uniform"] == 5
        assert a.energy_events[EnergyEvent.DECODE] == 10

    def test_merge_covers_every_field(self):
        """Every declared field participates in merge — a newly added
        counter cannot be silently dropped from multi-SM aggregation."""
        a, b = SimStats(), SimStats()
        for f in dataclasses.fields(SimStats):
            value = getattr(b, f.name)
            if isinstance(value, Counter):
                value["probe"] = 2
            else:
                setattr(b, f.name, 3)
        a.merge(b)
        for f in dataclasses.fields(SimStats):
            merged = getattr(a, f.name)
            if isinstance(merged, Counter):
                assert merged["probe"] == 2, f.name
            else:
                assert merged == 3, f.name
        # and merging again aggregates per the field's declared rule
        a.merge(b)
        assert a.cycles == 3                       # merge: max
        assert a.instructions_executed == 6        # merge: sum
        assert a.energy_events["probe"] == 4       # merge: Counter update

    def test_merge_rejects_fields_without_a_rule(self):
        @dataclasses.dataclass
        class BadStats(SimStats):
            note: str = ""

        with pytest.raises(TypeError, match="note"):
            BadStats().merge(BadStats())

    def test_to_dict_is_every_field_as_plain_data(self):
        s = SimStats()
        s.instructions_skipped = 30
        s.skipped_by_class["uniform"] += 2
        s.skipped_by_class["affine"] += 1
        s.energy_events[EnergyEvent.RF_READ] += 4
        d = s.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(SimStats)]
        assert d["instructions_skipped"] == 30
        assert list(d["skipped_by_class"].items()) == [("affine", 1), ("uniform", 2)]
        assert d["energy_events"] == {"rf_read": 4}
        assert json.loads(json.dumps(d)) == d


class TestMultiSMStats:
    """The merged stats of a real multi-SM run are the per-SM sums."""

    SRC = """
    .param out
        mul.u32 $o, %tid.x, 4
        add.u32 $o, $o, %param.out
        mul.u32 $v, %tid.x, 3
        st.global.u32 [$o], $v
        exit
    """

    def _run(self, num_sms):
        prog = assemble(self.SRC)
        launch = LaunchConfig(grid_dim=Dim3(4), block_dim=Dim3(32))
        mem = GlobalMemory(1 << 12)
        params = {"out": mem.alloc(512)}
        return simulate(prog, launch, mem, params=params,
                        config=small_config(num_sms))

    def test_merge_is_per_sm_sum(self):
        res = self._run(num_sms=2)
        assert len(res.per_sm_stats) == 2
        assert all(s.instructions_executed > 0 for s in res.per_sm_stats)
        rebuilt = SimStats()
        for s in res.per_sm_stats:
            rebuilt.merge(s)
        rebuilt.cycles = res.cycles
        assert rebuilt == res.stats          # dataclass eq: every field
        assert res.stats.instructions_executed == sum(
            s.instructions_executed for s in res.per_sm_stats
        )
        assert res.stats.cycles == max(s.cycles for s in res.per_sm_stats)

    def test_identical_runs_are_bit_identical(self):
        a, b = self._run(num_sms=2), self._run(num_sms=2)
        assert a.cycles == b.cycles
        assert a.stats == b.stats            # dataclass eq: every counter
        for sa, sb in zip(a.per_sm_stats, b.per_sm_stats):
            assert sa == sb
