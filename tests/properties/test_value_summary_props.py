"""Property-based tests for value-pattern classification."""

import zlib

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.simt.tracer import AFFINE, UNIFORM, UNSTRUCTURED, ValueSummary

lane_values = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=2, max_size=32
)


@given(st.integers(-(2**31), 2**31 - 1), st.integers(2, 32))
def test_constant_vectors_are_uniform(value, n):
    s = ValueSummary.of(np.full(n, value, dtype=np.int64))
    assert s.kind == UNIFORM and s.base == float(value)


@given(
    st.integers(-(2**20), 2**20),
    st.integers(-(2**10), 2**10).filter(lambda x: x != 0),
    st.integers(2, 32),
)
def test_arithmetic_progressions_are_affine(base, stride, n):
    v = base + stride * np.arange(n, dtype=np.int64)
    s = ValueSummary.of(v)
    assert s.kind == AFFINE
    assert s.base == float(base) and s.stride == float(stride)


@given(lane_values)
def test_classification_is_total_and_deterministic(values):
    a = ValueSummary.of(np.array(values, dtype=np.int64))
    b = ValueSummary.of(np.array(values, dtype=np.int64))
    assert a == b
    assert a.kind in (UNIFORM, AFFINE, UNSTRUCTURED)


@given(lane_values, lane_values)
def test_equal_summaries_for_equal_vectors_only(xs, ys):
    """Summary equality must imply redundancy-safe sharing: two equal
    summaries never come from vectors with different uniform/affine
    content (unstructured digests may collide only across distinct
    non-pattern vectors, with crc32 probability ~2^-32 — we only assert
    the structured kinds here)."""
    a = ValueSummary.of(np.array(xs, dtype=np.int64))
    b = ValueSummary.of(np.array(ys, dtype=np.int64))
    if a == b and a.kind in (UNIFORM, AFFINE) and len(xs) == len(ys):
        assert xs == ys


@given(lane_values)
def test_kind_matches_vector_structure(values):
    v = np.array(values, dtype=np.int64)
    s = ValueSummary.of(v)
    if s.kind == UNIFORM:
        assert (v == v[0]).all()
    elif s.kind == AFFINE:
        d = np.diff(v)
        assert (d == d[0]).all() and d[0] != 0
    else:
        d = np.diff(v)
        assert not (d == d[0]).all()


# -- the reduction rewrite against the classifier it replaced -----------------


def _reference_summary(values):
    """``ValueSummary.of`` as first written, with ``np.all``/``np.diff``."""
    if values.dtype == bool:
        values = values.astype(np.int64)
    first = values[0]
    if np.all(values == first):
        return ValueSummary(kind=UNIFORM, base=float(first))
    diffs = np.diff(values)
    if np.all(diffs == diffs[0]):
        return ValueSummary(kind=AFFINE, base=float(first), stride=float(diffs[0]))
    return ValueSummary(
        kind=UNSTRUCTURED, digest=zlib.crc32(np.ascontiguousarray(values).tobytes())
    )


def _bits(summary):
    """Every field, floats by bit pattern (so -0.0 differs from 0.0)."""
    return (
        summary.kind,
        np.float64(summary.base).tobytes(),
        np.float64(summary.stride).tobytes(),
        summary.digest,
    )


_FLOAT_EDGES = [float("nan"), 0.0, -0.0, float("inf"), -float("inf"), 1.5, -1.5]
_floats = st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats(allow_nan=True))
_lengths = st.integers(1, 32)


def _vectors(elements, dtype):
    """Arbitrary vectors, plus uniform and affine ones with at most one
    lane disturbed, so every branch of the classifier is reached."""
    arbitrary = st.lists(elements, min_size=1, max_size=32)
    uniform = st.builds(lambda v, n: [v] * n, elements, _lengths)
    affine = st.builds(
        lambda b, s, n: (np.asarray(b, dtype=dtype) + np.asarray(s, dtype=dtype)
                         * np.arange(n)).tolist(),
        elements, elements, _lengths,
    )
    disturbed = st.builds(
        lambda xs, i, v: xs[: i % len(xs)] + [v] + xs[i % len(xs) + 1:],
        st.one_of(uniform, affine), st.integers(0, 31), elements,
    )
    return st.one_of(arbitrary, uniform, affine, disturbed).map(
        lambda xs: np.array(xs, dtype=dtype)
    )


_ints = st.integers(-(2**40), 2**40)


@given(st.one_of(
    _vectors(_ints, np.int64),
    _vectors(_floats, np.float64),
    _vectors(st.booleans(), bool),
))
def test_summary_matches_reference_classifier(values):
    with np.errstate(all="ignore"):
        got = ValueSummary.of(values)
        try:
            want = _reference_summary(values)
        except IndexError:
            # The reference indexed an empty diff vector for a lone NaN
            # lane (NaN equals nothing, so it is not uniform); ``of``
            # classifies it unstructured, as it does any all-NaN vector.
            assert values.size == 1 and np.isnan(values[0])
            want = ValueSummary(kind=UNSTRUCTURED, digest=zlib.crc32(values.tobytes()))
        assert _bits(got) == _bits(want)


def test_lone_nan_lane_is_unstructured():
    """A partial warp with one live lane can produce a single NaN; the
    classifier once raised ``IndexError`` on it."""
    assert ValueSummary.of(np.array([np.nan])).kind == UNSTRUCTURED
