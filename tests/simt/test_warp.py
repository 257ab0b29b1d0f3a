"""Unit tests for warp state and the SIMT reconvergence stack."""

import numpy as np

from repro.simt.warp import WarpState


def make_warp(n=4):
    return WarpState.create(warp_id=0, tb_index=0, hw_mask=np.ones(n, dtype=bool))


class TestBasics:
    def test_initial_state(self):
        w = make_warp()
        assert w.pc == 0
        assert w.active_count == 4
        assert not w.has_simd_divergence
        assert not w.exited

    def test_pc_setter(self):
        w = make_warp()
        w.pc = 0x40
        assert w.pc == 0x40

    def test_partial_hw_mask_counts_as_divergence(self):
        """Section 4.5: instructions with inactive lanes never skip."""
        mask = np.array([True, True, False, False])
        w = WarpState.create(warp_id=0, tb_index=0, hw_mask=mask)
        assert not w.has_simd_divergence  # active == hw, no divergence yet
        w.top.active_mask = np.array([True, False, False, False])
        assert w.has_simd_divergence


class TestDivergence:
    def test_diverge_pushes_both_paths(self):
        w = make_warp()
        taken = np.array([True, False, True, False])
        w.diverge(taken_mask=taken, not_taken_pc=8, taken_pc=0x20, reconv_pc=0x40)
        assert len(w.stack) == 3
        # Taken path on top, then not-taken, then the continuation.
        assert w.pc == 0x20
        assert w.active_mask.tolist() == [True, False, True, False]
        assert w.has_simd_divergence

    def test_reconvergence_restores_mask(self):
        w = make_warp()
        taken = np.array([True, False, True, False])
        w.diverge(taken, not_taken_pc=8, taken_pc=0x20, reconv_pc=0x40)
        # Taken path runs to the reconvergence point.
        w.pc = 0x40
        assert w.maybe_reconverge()
        # Now the not-taken path is active.
        assert w.pc == 8
        assert w.active_mask.tolist() == [False, True, False, True]
        w.pc = 0x40
        assert w.maybe_reconverge()
        assert w.active_mask.all()
        assert len(w.stack) == 1
        assert not w.has_simd_divergence

    def test_diverge_to_exit(self):
        w = make_warp()
        taken = np.array([True, True, False, False])
        w.diverge(taken, not_taken_pc=8, taken_pc=0x30, reconv_pc=None)
        # Not-taken runs first (pushed on top), both rejoin only at exit.
        assert w.pc == 8
        assert w.active_mask.tolist() == [False, False, True, True]

    def test_retire(self):
        w = make_warp()
        w.retire()
        assert w.exited and not w.at_barrier


class TestMaskFullness:
    def test_full_follows_the_bound_mask(self):
        """The memo is keyed on the mask object, so rebinding invalidates it."""
        w = make_warp()
        assert w.top.full
        w.top.active_mask = np.array([True, False, True, True])
        assert not w.top.full
        w.top.active_mask = np.ones(4, dtype=bool)
        assert w.top.full

    def test_partial_warp_is_never_full(self):
        w = WarpState.create(warp_id=0, tb_index=0, hw_mask=np.array([True, True, False, False]))
        assert not w.top.full
