"""Unit tests for the rename/version unit (Figure 5 semantics)."""

import numpy as np
import pytest

from repro.core.rename import RegisterRenameUnit, RenameError

R1 = ("r", "r1")
P0 = ("p", "p0")


def unit(warps=3, regs=4):
    return RegisterRenameUnit(num_warps=warps, freelist_size=regs)


def lead(u, warp, key, value, members, is_pred=False):
    v = u.reserve_version(warp, key)
    return u.leader_write(warp, key, v, np.asarray(value), is_pred, members)


class TestFigure5Flow:
    """Replays the paper's Figure 5 scenario: three warps, R1 written
    twice, warp 2 trailing one version behind."""

    def test_two_live_versions(self):
        u = unit()
        members = [0, 1, 2]
        # Warp 0 leads PC0 -> R1(v1); warp 1 skips it.
        v1 = lead(u, 0, R1, [10, 11, 12], members)
        assert v1.version == 1
        assert u.follower_skip(1, R1).version == 1
        # Warp 0 leads PC2 (another write to R1) -> R1(v2).
        v2 = lead(u, 0, R1, [20, 21, 22], members)
        assert v2.version == 2
        assert u.live_versions == 2  # both versions alive (warp 2 trails)
        # Warp 2 finally skips PC0: it reads v1 (one write seen).
        vv = u.follower_skip(2, R1)
        assert vv.version == 1
        assert vv.value.tolist() == [10, 11, 12]
        # Warp 1 then skips PC2 -> v2; v1 has no readers left.
        assert u.follower_skip(1, R1).version == 2
        u.follower_skip(2, R1)
        assert u.live_versions == 1  # v1 reclaimed

    def test_reads_follow_rename_entry(self):
        u = unit()
        lead(u, 0, R1, [5, 5], [0, 1])
        u.follower_skip(1, R1)
        assert u.read(1, R1).value.tolist() == [5, 5]
        # Warp 2 never skipped: no rename entry.
        assert u.read(2, R1) is None


class TestFreelist:
    def test_exhaustion(self):
        u = unit(warps=2, regs=2)
        lead(u, 0, R1, [1], [0, 1])
        lead(u, 0, ("r", "r2"), [2], [0, 1])
        assert not u.can_allocate()
        with pytest.raises(RenameError, match="empty freelist"):
            lead(u, 0, ("r", "r3"), [3], [0, 1])

    def test_frees_return_to_list(self):
        u = unit(warps=2, regs=1)
        lead(u, 0, R1, [1], [0, 1])
        assert not u.can_allocate()
        u.follower_skip(1, R1)
        # Both warps advance past v1 when v2 is reserved by the leader.
        u.reserve_version(0, R1)
        u.private_instance_write(1, R1)
        assert u.can_allocate()

    def test_each_leader_write_keeps_a_live_version(self):
        u = unit(regs=8)
        for i in range(3):
            lead(u, 0, ("r", f"x{i}"), [i], [0, 1])
        assert u.live_versions == 3


class TestPrivateWrites:
    def test_private_write_clears_entry(self):
        u = unit()
        lead(u, 0, R1, [1, 2], [0, 1])
        u.follower_skip(1, R1)
        u.private_write(1, R1)
        assert u.read(1, R1) is None
        # The write count is untouched (not a skip-set instruction).
        assert u.count(1, R1) == 1

    def test_private_instance_write_advances_count(self):
        u = unit()
        u.private_instance_write(1, R1)
        assert u.count(1, R1) == 1
        assert u.read(1, R1) is None

    def test_private_instance_releases_version_ref(self):
        u = unit(warps=2, regs=2)
        lead(u, 0, R1, [1], [0, 1])
        # Warp 1 executes the instance privately instead of skipping.
        u.private_instance_write(1, R1)
        # Nobody can read v1 anymore; it is reclaimed.
        assert u.live_versions == 0


class TestPathEvents:
    def test_clear_warp_materialises(self):
        u = unit()
        lead(u, 0, R1, [7, 8], [0, 1, 2])
        lead(u, 0, P0, [True, False], [0, 1, 2], is_pred=True)
        u.follower_skip(1, R1)
        u.follower_skip(1, P0)
        mats = u.clear_warp(1)
        got = {m.key: (m.value.tolist(), m.is_pred) for m in mats}
        assert got[R1] == ([7, 8], False)
        assert got[P0][1] is True
        assert u.read(1, R1) is None

    def test_clear_warp_releases_refs(self):
        u = unit(warps=2, regs=1)
        lead(u, 0, R1, [1], [0, 1])
        u.reserve_version(0, R1)  # leader advances past v1
        assert u.live_versions == 1  # warp 1 still pins v1
        u.clear_warp(1)
        assert u.live_versions == 0

    def test_reset_all(self):
        u = unit()
        lead(u, 0, R1, [3, 4], [0, 1])
        u.follower_skip(1, R1)
        mats = u.reset_all()
        assert 1 in mats  # warp 1's value must be materialised
        assert u.live_versions == 0
        assert u.can_allocate()
        assert u.count(0, R1) == 0  # counts restart


class TestInvariants:
    def test_duplicate_version_rejected(self):
        u = unit()
        v = u.reserve_version(0, R1)
        u.leader_write(0, R1, v, np.array([1]), False, [0, 1])
        with pytest.raises(RenameError, match="duplicate"):
            u.leader_write(0, R1, v, np.array([2]), False, [0, 1])

    def test_follower_cannot_outrun_leader(self):
        u = unit()
        with pytest.raises(RenameError, match="before the leader"):
            u.follower_skip(1, R1)

    def test_banks_strided(self):
        u = unit(regs=32)
        banks = {u.bank_of(p) for p in range(32)}
        assert len(banks) == u.rf_banks
