"""Unit tests for the 64-bit encoding with redundancy hint bits."""

import pytest

from repro.core.taxonomy import Marking
from repro.isa import assemble
from repro.isa.encoding import (
    EncodingError,
    HINT_CONDITIONAL,
    HINT_CONDITIONAL_Y,
    HINT_REDUNDANT,
    HINT_VECTOR,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.isa.instructions import Opcode

SRC = """
.kernel enc
.param base
    mul.u32        $r1, %tid.x, 4
    add.u32        $r2, $r1, %param.base
    ld.global.s32  $r3, [$r2 + 8]
    setp.lt.u32    $p0, $r3, 100
@$p0 bra skip
    st.global.s32  [$r2], $r3
skip:
    bar.sync
    exit
"""


class TestRoundTrip:
    def test_words_are_64_bit(self):
        prog = assemble(SRC)
        enc = encode_program(prog)
        assert all(0 <= w < (1 << 64) for w in enc.words)
        assert len(enc.words) == len(prog)

    def test_decode_matches_semantics(self):
        prog = assemble(SRC)
        enc = encode_program(prog)
        back = decode_program(enc)
        assert len(back) == len(prog)
        for a, b in zip(prog.instructions, back.instructions):
            assert a.opcode == b.opcode
            assert a.dtype == b.dtype
            assert a.cmp == b.cmp
            assert a.dst == b.dst
            assert a.srcs == b.srcs
            assert a.mem == b.mem
            assert a.target_pc == b.target_pc
            assert a.guard == b.guard
            assert a.guard_negated == b.guard_negated

    def test_decoded_program_has_working_cfg(self):
        prog = assemble(SRC)
        back = decode_program(encode_program(prog))
        assert back.branch_pcs() == prog.branch_pcs()


class TestHints:
    def test_hint_bits_encode_three_states(self):
        prog = assemble(SRC)
        markings = {0: HINT_REDUNDANT, 8: HINT_CONDITIONAL, 16: HINT_VECTOR}
        enc = encode_program(prog, markings)
        assert enc.hint_of(0) == HINT_REDUNDANT
        assert enc.hint_of(8) == HINT_CONDITIONAL
        assert enc.hint_of(16) == HINT_VECTOR
        # Unmarked PCs default to vector.
        assert enc.hint_of(24) == HINT_VECTOR

    def test_hint_values_are_the_markings(self):
        """The two bits carry a ``Marking`` as its value, all four of
        them (CRy is the 3D extension's)."""
        assert (HINT_VECTOR, HINT_CONDITIONAL_Y, HINT_CONDITIONAL, HINT_REDUNDANT) == (
            Marking.VECTOR, Marking.CONDITIONAL_Y, Marking.CONDITIONAL, Marking.REDUNDANT,
        )
        prog = assemble(SRC)
        markings = {inst.pc: list(Marking)[i % len(Marking)]
                    for i, inst in enumerate(prog.instructions)}
        enc = encode_program(prog, markings)
        assert {pc: Marking(enc.hint_of(pc)) for pc in markings} == markings

    def test_hints_do_not_change_decoding(self):
        """Section 4.2: markings only add hints; the instruction stream
        is unchanged, so non-DARSIE hardware can ignore them."""
        prog = assemble(SRC)
        plain = decode_program(encode_program(prog))
        hinted = decode_program(
            encode_program(prog, {i.pc: HINT_REDUNDANT for i in prog.instructions})
        )
        for a, b in zip(plain.instructions, hinted.instructions):
            assert a.opcode == b.opcode and a.srcs == b.srcs and a.dst == b.dst

    def test_invalid_hint_rejected(self):
        prog = assemble(SRC)
        from repro.isa.encoding import _Pool

        with pytest.raises(EncodingError):
            encode_instruction(prog.instructions[0], _Pool(), hint=7)


class TestBranchEncoding:
    def test_branch_target_word_index(self):
        prog = assemble(SRC)
        enc = encode_program(prog)
        back = decode_program(enc)
        bra = [i for i in back.instructions if i.opcode is Opcode.BRA][0]
        assert bra.target_pc == prog.labels["skip"]
