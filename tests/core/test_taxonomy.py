"""Unit tests for the redundancy taxonomy and marking lattice."""

import numpy as np

from repro.core.taxonomy import Marking, STATIC_MARKING_OF_CLASS
from repro.simt.tracer import RedundancyClass, Tracer
from tests.flat_trace import StubInst, StubTB, StubWarp


def classify(rows, warps=2, divergent=()):
    """The class the tracer gives one TB instance of a ``warps``-warp
    TB whose first warps wrote ``rows``, one warp at a time; the warps in
    ``divergent`` ran with their last lane idle."""
    members = [StubWarp(w, 4) for w in range(warps)]
    tb = StubTB(0, members)
    tracer = Tracer()
    tracer.begin_block(tb)
    for w, row in enumerate(rows):
        mask = np.arange(4) < (3 if w in divergent else 4)
        tracer.record_group(tb, members[w:w + 1], StubInst(0), [np.asarray(row)], [mask])
    return tracer.trace.instances[(0, 0, 0)].redundancy


class TestMarkingLattice:
    def test_ordering(self):
        assert Marking.VECTOR < Marking.CONDITIONAL < Marking.REDUNDANT

    def test_meet_is_weakest(self):
        """Section 4.2: 'we assign the weakest of the definitions'."""
        assert Marking.meet(Marking.REDUNDANT, Marking.CONDITIONAL) is Marking.CONDITIONAL
        assert Marking.meet(Marking.CONDITIONAL, Marking.VECTOR) is Marking.VECTOR
        assert Marking.meet(Marking.REDUNDANT, Marking.REDUNDANT) is Marking.REDUNDANT

    def test_meet_commutes(self):
        for a in Marking:
            for b in Marking:
                assert Marking.meet(a, b) is Marking.meet(b, a)

    def test_short_names(self):
        assert Marking.REDUNDANT.short == "DR"
        assert Marking.CONDITIONAL.short == "CR"
        assert Marking.VECTOR.short == "V"


class TestClassification:
    def test_uniform_redundant(self):
        assert classify([[5, 5, 5, 5], [5, 5, 5, 5]]) is RedundancyClass.UNIFORM

    def test_affine_redundant(self):
        assert classify([[0, 4, 8, 12], [0, 4, 8, 12]]) is RedundancyClass.AFFINE

    def test_unstructured_redundant(self):
        assert classify([[7, 3, 0, 90], [7, 3, 0, 90]]) is RedundancyClass.UNSTRUCTURED

    def test_different_values_non_redundant(self):
        assert classify([[0, 4, 8, 12], [16, 20, 24, 28]]) is RedundancyClass.NON_REDUNDANT

    def test_missing_warp_non_redundant(self):
        assert classify([[5, 5, 5, 5]]) is RedundancyClass.NON_REDUNDANT

    def test_divergent_non_redundant(self):
        """Figure 2 caption: diverged control flow counts non-redundant."""
        rows = [[5, 5, 5, 5], [5, 5, 5, 5]]
        assert classify(rows, divergent={0}) is RedundancyClass.NON_REDUNDANT


class TestStaticMapping:
    def test_uniform_is_definitely_redundant(self):
        assert STATIC_MARKING_OF_CLASS[RedundancyClass.UNIFORM] is Marking.REDUNDANT

    def test_affine_and_unstructured_are_conditional(self):
        assert STATIC_MARKING_OF_CLASS[RedundancyClass.AFFINE] is Marking.CONDITIONAL
        assert STATIC_MARKING_OF_CLASS[RedundancyClass.UNSTRUCTURED] is Marking.CONDITIONAL
