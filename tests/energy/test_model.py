"""Unit tests for the energy model."""

import pytest

from repro.energy import EnergyModel, PASCAL_ENERGY_MODEL
from repro.timing import EnergyEvent, SimStats


def stats_with(events, cycles=100):
    s = SimStats()
    s.cycles = cycles
    s.energy_events.update(events)
    return s


class TestAccounting:
    def test_dynamic_energy_is_linear(self):
        s1 = stats_with({EnergyEvent.ALU_OP: 10})
        s2 = stats_with({EnergyEvent.ALU_OP: 20})
        m = PASCAL_ENERGY_MODEL
        assert m.dynamic_energy_pj(s2) == pytest.approx(2 * m.dynamic_energy_pj(s1))

    def test_table2_rf_energies(self):
        m = PASCAL_ENERGY_MODEL
        assert m.event_pj[EnergyEvent.RF_READ] == 14.2
        assert m.event_pj[EnergyEvent.RF_WRITE] == 25.9

    def test_static_energy_scales_with_cycles_and_sms(self):
        m = PASCAL_ENERGY_MODEL
        s = stats_with({}, cycles=1000)
        assert m.static_energy_pj(s, 2) == 2 * m.static_energy_pj(s, 1)

    def test_total_is_sum(self):
        m = PASCAL_ENERGY_MODEL
        s = stats_with({EnergyEvent.DECODE: 5}, cycles=10)
        assert m.total_energy_pj(s, 1) == pytest.approx(
            m.dynamic_energy_pj(s) + m.static_energy_pj(s, 1)
        )

    def test_unknown_events_cost_nothing(self):
        m = EnergyModel(event_pj={})
        s = stats_with({EnergyEvent.ALU_OP: 100})
        assert m.dynamic_energy_pj(s) == 0.0


class TestBreakdown:
    def test_overhead_fraction_isolates_darsie_events(self):
        s = stats_with({
            EnergyEvent.ALU_OP: 1000,
            EnergyEvent.SKIP_TABLE_PROBE: 10,
            EnergyEvent.RENAME_WRITE: 10,
        })
        b = PASCAL_ENERGY_MODEL.breakdown(s, 1)
        assert 0 < b.overhead_fraction < 0.01
        assert b.darsie_overhead_pj > 0
        assert b.total_pj == pytest.approx(b.dynamic_pj + b.static_pj)

    def test_zero_dynamic(self):
        b = PASCAL_ENERGY_MODEL.breakdown(stats_with({}), 1)
        assert b.overhead_fraction == 0.0


class TestOrderingInvariance:
    def test_fewer_events_less_energy(self):
        """The property Figure 11 relies on: removing events can only
        reduce dynamic energy."""
        m = PASCAL_ENERGY_MODEL
        big = stats_with({EnergyEvent.ICACHE_FETCH: 100, EnergyEvent.ALU_OP: 100})
        small = stats_with({EnergyEvent.ICACHE_FETCH: 60, EnergyEvent.ALU_OP: 80})
        assert m.dynamic_energy_pj(small) < m.dynamic_energy_pj(big)
