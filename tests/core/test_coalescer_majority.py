"""Unit tests for the PC coalescer (4.3.4) and majority mask (4.3.3)."""

import pytest

from repro.core.coalescer import PCCoalescer
from repro.core.majority import MajorityPathMask


class TestCoalescer:
    def test_same_pc_coalesces_into_one_access(self):
        c = PCCoalescer(ports=2)
        serviced, deferred = c.arbitrate([(0, 0x40), (1, 0x40), (2, 0x40)])
        assert serviced == [(0x40, [0, 1, 2])]
        assert deferred == []
        assert len(serviced) == 1  # one port serves all three warps

    def test_port_limit_defers_excess_pcs(self):
        c = PCCoalescer(ports=2)
        serviced, deferred = c.arbitrate(
            [(0, 0x00), (1, 0x08), (2, 0x10), (3, 0x10)]
        )
        assert len(serviced) == 2
        assert deferred == [(2, 0x10), (3, 0x10)]

    def test_insertion_order_no_starvation(self):
        c = PCCoalescer(ports=1)
        serviced, _ = c.arbitrate([(0, 0x10), (1, 0x08)])
        assert serviced[0][0] == 0x10  # first-come first-served

    def test_requires_port(self):
        with pytest.raises(ValueError):
            PCCoalescer(ports=0)

    def test_one_port_services_one_pc_and_defers_the_other(self):
        c = PCCoalescer(ports=1)
        serviced, deferred = c.arbitrate([(0, 0), (1, 8)])
        assert serviced == [(0, [0])]
        assert deferred == [(1, 8)]


class TestMajorityMask:
    def test_starts_all_on_path(self):
        m = MajorityPathMask(4)
        assert m.members() == [0, 1, 2, 3]
        assert m.count == 4

    def test_clear_removes(self):
        m = MajorityPathMask(4)
        m.clear(2)
        assert 2 not in m.on_path
        assert m.members() == [0, 1, 3]

    def test_member_list_is_kept_until_membership_changes(self):
        m = MajorityPathMask(4)
        kept = m.members()
        assert m.members() is kept
        m.clear(2)
        assert kept == [0, 1, 2, 3]  # a caller's snapshot stays whole
        assert m.members() == [0, 1, 3]
        current = m.members()
        m.clear(2)  # already off the path: the list is not rebuilt
        assert m.members() is current

    def test_syncthreads_resets(self):
        """Section 4.3.3: bits set back to one at syncthreads."""
        m = MajorityPathMask(4)
        m.clear(1)
        m.clear(3)
        m.reset_at_syncthreads()
        assert m.members() == [0, 1, 2, 3]

    def test_exited_warps_stay_out(self):
        m = MajorityPathMask(4)
        m.warp_exited(0)
        m.reset_at_syncthreads()
        assert m.members() == [1, 2, 3]

    def test_bitmask(self):
        m = MajorityPathMask(4)
        m.clear(1)
        assert m.bitmask() == 0b1101
