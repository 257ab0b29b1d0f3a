"""The static marking lattice of the compiler pass.

:class:`Marking` is the *static* classification attached to
instructions by the compiler pass: definitely redundant, conditionally
redundant or true vector.  Its dynamic counterpart, the Section 2
taxonomy of a TB instance (:class:`~repro.simt.tracer.RedundancyClass`:
uniform, affine or unstructured), lives with the tracer that classifies
it.  Uniform redundancy is always definitely redundant; affine and
unstructured redundancy are conditionally redundant (Section 4.2).

The meet rule of the compiler pass ("if more than one of our three
redundancy definitions reaches a source operand, we assign the weakest")
is :func:`Marking.meet` — VECTOR < CONDITIONAL < REDUNDANT.
"""

from __future__ import annotations

import enum

from repro.simt.tracer import RedundancyClass


class Marking(enum.IntEnum):
    """Static redundancy marking (ordered: lower is weaker).

    The paper uses three states; CONDITIONAL_Y is this repository's
    implementation of the paper's 3D extension ("These observations also
    apply to 3D TBs, where both the tid.x and tid.y registers can be
    conditionally redundant", Section 2).  Its promotion criterion
    (``x*y`` a power of two ≤ the warp size, 3D TB) *implies* the tid.x
    criterion, so the lattice stays linear: a value mixing tid.x- and
    tid.y-conditional inputs is redundant exactly when the stricter
    (tid.y) condition holds, which is what the meet computes.
    """

    VECTOR = 0
    CONDITIONAL_Y = 1
    CONDITIONAL = 2
    REDUNDANT = 3

    @staticmethod
    def meet(a: "Marking", b: "Marking") -> "Marking":
        """The weakest of two markings (paper's combination rule)."""
        return a if a <= b else b

    @property
    def short(self) -> str:
        return {
            Marking.VECTOR: "V",
            Marking.CONDITIONAL_Y: "CRy",
            Marking.CONDITIONAL: "CR",
            Marking.REDUNDANT: "DR",
        }[self]


#: Mapping from dynamic class to the static marking that identifies it
#: (Section 4.2: uniform values are definitely redundant, affine and
#: unstructured values are conditionally redundant).
STATIC_MARKING_OF_CLASS = {
    RedundancyClass.UNIFORM: Marking.REDUNDANT,
    RedundancyClass.AFFINE: Marking.CONDITIONAL,
    RedundancyClass.UNSTRUCTURED: Marking.CONDITIONAL,
    RedundancyClass.NON_REDUNDANT: Marking.VECTOR,
}
