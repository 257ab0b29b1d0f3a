"""Shared-memory bank conflicts against a brute-force reference.

The reference counts, per bank, the distinct words the active lanes
touch (``np.unique`` plus ``np.bincount``); the access then serialises
over its busiest bank.  The model's fast path answers broadcasts and
accesses within one bank-width window without counting, so the
generated accesses mix broadcasts, strides 1-33, random words, strided
lanes sharing a broadcast word, and words spread over exactly one word
less than, equal to or more than the bank count (the window's edge),
under full, partial and empty masks on 16 or 32 banks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing.memory_system import shared_bank_conflict_cycles

WARP = 32
LANES = np.arange(WARP)


def reference(addresses: np.ndarray, mask: np.ndarray, num_banks: int) -> int:
    words = np.unique(addresses[mask] // 4)
    if words.size == 0:
        return 0
    return int(np.bincount(words % num_banks, minlength=num_banks).max()) - 1


@st.composite
def accesses(draw):
    banks = draw(st.sampled_from((16, 32)))
    base = draw(st.integers(0, 1 << 12))
    stride = draw(st.integers(1, 33))
    kind = draw(
        st.sampled_from(("broadcast", "stride", "random", "stride+broadcast", "edge"))
    )
    if kind == "broadcast":
        words = np.full(WARP, base)
    elif kind == "stride":
        words = base + LANES * stride
    elif kind == "random":
        words = np.array(draw(st.lists(st.integers(0, 1 << 12), min_size=WARP, max_size=WARP)))
    elif kind == "edge":
        # Lanes 0 and 1 span ``banks - 1 + d`` words; the rest fall between.
        span = banks - 1 + draw(st.integers(0, 2))
        inner = draw(st.lists(st.integers(0, span), min_size=WARP - 2, max_size=WARP - 2))
        words = base + np.array([0, span] + inner)
    else:
        shared = np.array(draw(st.lists(st.booleans(), min_size=WARP, max_size=WARP)))
        words = np.where(shared, base, base + LANES * stride)
    # Any byte of a word addresses that word.
    offsets = np.array(draw(st.lists(st.integers(0, 3), min_size=WARP, max_size=WARP)))
    addresses = (words * 4 + offsets).astype(np.int64)
    mask_kind = draw(st.sampled_from(("full", "partial", "empty")))
    if mask_kind == "full":
        mask = np.ones(WARP, dtype=bool)
    elif mask_kind == "empty":
        mask = np.zeros(WARP, dtype=bool)
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=WARP, max_size=WARP)))
    return addresses, mask, banks


@settings(max_examples=400, deadline=None)
@given(accesses())
def test_matches_brute_force(access):
    addresses, mask, banks = access
    assert shared_bank_conflict_cycles(addresses, mask, banks) == reference(
        addresses, mask, banks
    )


@pytest.mark.parametrize("banks", (16, 32))
@pytest.mark.parametrize("stride", range(1, 34))
def test_every_stride_matches_brute_force(stride, banks):
    addresses = (LANES * stride * 4).astype(np.int64)
    mask = np.ones(WARP, dtype=bool)
    got = shared_bank_conflict_cycles(addresses, mask, banks)
    assert got == reference(addresses, mask, banks)
    # A stride with a factor in common with the bank count conflicts.
    assert (got > 0) == (np.gcd(stride, banks) > 1 or banks < WARP)


@pytest.mark.parametrize("banks", (16, 32))
@pytest.mark.parametrize("extra", (-1, 0, 1))
def test_window_edge(extra, banks):
    # Words 0 and banks + extra, the other lanes broadcasting word 0:
    # only a span of exactly the bank count puts two words in one bank.
    words = np.zeros(WARP, dtype=np.int64)
    words[1] = banks + extra
    mask = np.ones(WARP, dtype=bool)
    got = shared_bank_conflict_cycles(words * 4, mask, banks)
    assert got == reference(words * 4, mask, banks) == (1 if extra == 0 else 0)
