"""The TB-instance table against the per-warp reference, on random
record streams.

A stream is what the functional runner hands the tracer: full-mask
group blocks (whole or broadcast), masked groups, per-warp rounds that
reach one instance across flushes, partial warps, predicate rows, NaN,
±0.0, ±inf, one-lane rows and records of no value.  For every instance
the table's fields and class must equal what the per-warp reference
(``tests/flat_trace.py``) gives: per-row ``ValueSummary.of``, the
divergence rule and the classifier the table replaced.  Equality is
``ValueSummary`` equality, floats by bit pattern in the stored summary.
A read mid-stream must equal the reference of the records so far, and
leave the table at the end as a single read at the end leaves it,
whatever the batch size.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simt import tracer as tracer_module
from repro.simt.tracer import Tracer
from tests.flat_trace import FlatTracer, StubInst, StubTB, StubWarp, reference_table, table_bits

_FLOATS = [float("nan"), 0.0, -0.0, float("inf"), -float("inf"), 1.5, 2.0]
_INTS = [0, 1, 2, -1, 2**63 - 1, -(2**63)]
_ELEMENTS = {
    np.int64: st.one_of(st.sampled_from(_INTS), st.integers(-3, 3)),
    np.float64: st.one_of(st.sampled_from(_FLOATS), st.integers(-3, 3).map(float)),
    bool: st.booleans(),
}


def _vectors(dtype, lanes):
    """Vectors of ``lanes`` lanes: arbitrary, uniform or affine."""
    elements = _ELEMENTS[dtype]

    def affine(base_stride):
        with np.errstate(all="ignore"):
            base, stride = (np.asarray(x, dtype=dtype) for x in base_stride)
            return (base + stride * np.arange(lanes)).astype(dtype).tolist()

    return st.one_of(
        st.lists(elements, min_size=lanes, max_size=lanes),
        elements.map(lambda v: [v] * lanes),
        st.tuples(elements, elements).map(affine),
    ).map(lambda xs: np.array(xs, dtype=dtype))


class _Result:
    """What ``Tracer.record`` reads of a per-warp step's result."""

    def __init__(self, inst, dest_value, exec_mask):
        self.inst = inst
        self.dest_value = dest_value
        self.exec_mask = exec_mask


@st.composite
def _step(draw, tbs, lanes):
    """One ``record_group`` call, or one per-warp round of ``record``
    calls: ``(tb, warps, inst, values, exec_masks, per_warp)``."""
    tb = draw(st.sampled_from(tbs))
    chosen = draw(st.sets(st.integers(0, len(tb.warps) - 1), min_size=1))
    warps = [tb.warps[w] for w in sorted(chosen)]
    inst = StubInst(draw(st.sampled_from([0, 8, 16])))
    dtype = draw(st.sampled_from(list(_ELEMENTS)))
    pool = draw(st.lists(_vectors(dtype, lanes), min_size=1, max_size=2))
    values = None
    if draw(st.integers(0, 4)):  # one step in five writes no register
        values = np.array([draw(st.sampled_from(pool)) for _ in warps])
    forms = ["masked", "per-warp"]
    if all(w.hw_mask.all() for w in warps):
        forms.append("block")  # a full-mask block: no partial warp in the group
    form = draw(st.sampled_from(forms))
    if form == "block":
        if values is not None and draw(st.booleans()):
            values = np.broadcast_to(values[0], values.shape)  # one vector every warp shares
        return tb, warps, inst, values, None, False
    exec_masks = []
    for w in warps:
        idle = draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes))
        exec_masks.append(w.hw_mask & ~np.array(idle) if draw(st.booleans()) else w.hw_mask)
    if values is None:
        values = [None] * len(warps)
    return tb, warps, inst, values, exec_masks, form == "per-warp"


@st.composite
def _streams(draw):
    lanes = draw(st.integers(1, 4))
    warps = draw(st.integers(1, 3))
    live = draw(st.integers(1, lanes))  # live lanes of each TB's last warp
    tbs = [
        StubTB(b, [StubWarp(w, lanes, live if w == warps - 1 else None) for w in range(warps)])
        for b in range(draw(st.integers(1, 2)))
    ]
    steps = draw(st.lists(_step(tbs, lanes), min_size=1, max_size=25))
    reads = draw(st.sets(st.integers(0, 24)))
    return tbs, steps, reads, draw(st.integers(1, 6))


def _replay(tracer, tbs, steps, reads=(), on_read=None):
    for tb in tbs:
        tracer.begin_block(tb)
    for i, (tb, warps, inst, values, exec_masks, per_warp) in enumerate(steps):
        if per_warp:
            for warp, value, mask in zip(warps, values, exec_masks):
                tracer.record(tb, warp, _Result(inst, value, mask))
        else:
            tracer.record_group(tb, warps, inst, values, exec_masks)
        if i in reads:
            on_read(tracer)
    return tracer


def _matches_reference(tracer):
    trace = tracer.trace
    assert len(trace) == len(tracer.records)
    assert table_bits(trace.instances) == table_bits(
        reference_table(tracer.records, trace.warps_per_block)
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_streams())
def test_table_matches_per_warp_reference(stream):
    tbs, steps, reads, batch = stream
    with np.errstate(all="ignore"):
        once = _replay(Tracer(), tbs, steps).trace
        default = tracer_module.BATCH_ROWS
        tracer_module.BATCH_ROWS = batch
        try:
            flat = _replay(FlatTracer(), tbs, steps, reads, _matches_reference)
        finally:
            tracer_module.BATCH_ROWS = default
        _matches_reference(flat)
        assert table_bits(once.instances) == table_bits(flat.trace.instances)
        assert len(once) == len(flat.trace)
