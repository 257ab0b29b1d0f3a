"""Unit tests for the PC Skip Table (Section 4.3.2)."""

import pytest

from repro.core.skip_table import PCSkipTable


class TestBasicOperation:
    def test_insert_and_lookup(self):
        t = PCSkipTable(capacity=4)
        e = t.insert(0x40, leader_warp=2, is_load=False)
        assert e is not None and e.leader_warp == 2
        assert t.lookup(0x40) is e
        assert t.lookup(0x48) is None

    def test_duplicate_insert_rejected(self):
        t = PCSkipTable(capacity=4)
        t.insert(0x40, leader_warp=0, is_load=False)
        with pytest.raises(ValueError, match="duplicate"):
            t.insert(0x40, leader_warp=1, is_load=False)

    def test_remove(self):
        t = PCSkipTable(capacity=4)
        t.insert(0x40, leader_warp=0, is_load=False)
        assert t.remove(0x40) is not None
        assert t.lookup(0x40) is None
        assert t.remove(0x40) is None

    def test_capacity_enforced(self):
        t = PCSkipTable(capacity=2)
        t.insert(0x00, leader_warp=0, is_load=False)
        t.insert(0x08, leader_warp=0, is_load=False)
        assert t.full
        assert t.insert(0x10, leader_warp=0, is_load=False) is None


class TestEviction:
    def test_victim_is_lru_with_leaderwb(self):
        t = PCSkipTable(capacity=2)
        a = t.insert(0x00, leader_warp=0, is_load=False, now=1)
        b = t.insert(0x08, leader_warp=0, is_load=False, now=2)
        a.leader_wb = True
        b.leader_wb = True
        t.lookup(0x00, now=9)  # refresh a
        victim = t.eviction_victim()
        assert victim is b

    def test_no_victim_when_waiting_or_pending(self):
        t = PCSkipTable(capacity=2)
        a = t.insert(0x00, leader_warp=0, is_load=False)
        t.insert(0x08, leader_warp=0, is_load=False)
        a.leader_wb = True
        a.warps_waiting.add(3)   # synchronizing: not evictable
        # b: leader not written back yet: not evictable
        assert t.eviction_victim() is None


class TestLoadInvalidation:
    def test_invalidate_loads_only(self):
        """Section 4.4: stores remove load PCs from the skip table."""
        t = PCSkipTable(capacity=4)
        t.insert(0x00, leader_warp=0, is_load=True)
        t.insert(0x08, leader_warp=0, is_load=False)
        t.insert(0x10, leader_warp=1, is_load=True)
        removed = t.invalidate_loads()
        assert {e.pc for e in removed} == {0x00, 0x10}
        assert t.lookup(0x08) is not None
        assert len(removed) == 2 and len(t) == 1
