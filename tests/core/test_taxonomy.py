"""Unit tests for the redundancy taxonomy and marking lattice."""

import numpy as np

from repro.core.taxonomy import Marking, STATIC_MARKING_OF_CLASS
from repro.simt.tracer import DynamicInstruction, RedundancyClass, ValueSummary, classify_group


def rec(warp, values, divergent=False):
    return DynamicInstruction(
        warp_id=warp, summary=ValueSummary.of(np.asarray(values)), divergent=divergent,
    )


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


class TestClassifyGroup:
    def test_uniform_redundant(self):
        group = [rec(0, [5, 5, 5, 5]), rec(1, [5, 5, 5, 5])]
        assert classify_group(group, 2) is RedundancyClass.UNIFORM

    def test_affine_redundant(self):
        group = [rec(0, [0, 4, 8, 12]), rec(1, [0, 4, 8, 12])]
        assert classify_group(group, 2) is RedundancyClass.AFFINE

    def test_unstructured_redundant(self):
        group = [rec(0, [7, 3, 0, 90]), rec(1, [7, 3, 0, 90])]
        assert classify_group(group, 2) is RedundancyClass.UNSTRUCTURED

    def test_different_values_non_redundant(self):
        group = [rec(0, [0, 4, 8, 12]), rec(1, [16, 20, 24, 28])]
        assert classify_group(group, 2) is RedundancyClass.NON_REDUNDANT

    def test_missing_warp_non_redundant(self):
        group = [rec(0, [5, 5, 5, 5])]
        assert classify_group(group, 2) is RedundancyClass.NON_REDUNDANT

    def test_divergent_non_redundant(self):
        """Figure 2 caption: diverged control flow counts non-redundant."""
        group = [rec(0, [5, 5, 5, 5], divergent=True), rec(1, [5, 5, 5, 5])]
        assert classify_group(group, 2) is RedundancyClass.NON_REDUNDANT


class TestStaticMapping:
    def test_uniform_is_definitely_redundant(self):
        assert STATIC_MARKING_OF_CLASS[RedundancyClass.UNIFORM] is Marking.REDUNDANT

    def test_affine_and_unstructured_are_conditional(self):
        assert STATIC_MARKING_OF_CLASS[RedundancyClass.AFFINE] is Marking.CONDITIONAL
        assert STATIC_MARKING_OF_CLASS[RedundancyClass.UNSTRUCTURED] is Marking.CONDITIONAL
