"""Unit tests for the tracer and value summaries."""

import struct

import numpy as np
import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, Tracer, assemble, run_functional
from repro.baselines import dac
from repro.simt import tracer as tracer_module
from repro.simt.tracer import (
    AFFINE, NONE, UNIFORM, UNSTRUCTURED, DynamicInstruction, ValueSummary,
)
from repro.workloads import EXTENDED_ABBRS, build_workload


class TestValueSummary:
    def test_uniform(self):
        s = ValueSummary.of(np.full(8, 42))
        assert s.kind == UNIFORM and s.base == 42.0

    def test_affine(self):
        s = ValueSummary.of(np.arange(10, 50, 5))
        assert s.kind == AFFINE and s.base == 10.0 and s.stride == 5.0

    def test_negative_stride_affine(self):
        s = ValueSummary.of(np.arange(16, 0, -2))
        assert s.kind == AFFINE and s.stride == -2.0

    def test_unstructured(self):
        s = ValueSummary.of(np.array([3, 1, 4, 1, 5]))
        assert s.kind == UNSTRUCTURED

    def test_repeating_pattern_is_unstructured(self):
        """Section 2: patterns not expressible as a single (base, stride)
        pair are unstructured — including the repeating tid.x vector of
        a 16x16 TB on a 32-wide warp."""
        s = ValueSummary.of(np.array(list(range(16)) * 2))
        assert s.kind == UNSTRUCTURED

    def test_equal_vectors_share_summary(self):
        a = ValueSummary.of(np.array([3, 1, 4, 1]))
        b = ValueSummary.of(np.array([3, 1, 4, 1]))
        c = ValueSummary.of(np.array([3, 1, 4, 2]))
        assert a == b and a != c

    def test_bool_vectors(self):
        s = ValueSummary.of(np.array([True, True, True]))
        assert s.kind == UNIFORM and s.base == 1.0

    def test_float_uniform(self):
        assert ValueSummary.of(np.full(4, 2.5)).kind == UNIFORM

    def test_is_a_plain_value(self):
        """Fields, defaults, equality, hash and repr of the dataclass it
        replaced."""
        s = ValueSummary(kind=AFFINE, base=1.0, stride=2.0)
        assert s == ValueSummary(AFFINE, 1.0, 2.0, 0)
        assert s != ValueSummary(AFFINE, 1.0, 3.0, 0)
        assert hash(s) == hash((AFFINE, 1.0, 2.0, 0))
        assert repr(s) == "ValueSummary(kind='affine', base=1.0, stride=2.0, digest=0)"
        assert ValueSummary(kind=NONE) == (NONE, 0.0, 0.0, 0)


class TestTracer:
    def _trace(self, src, block, warp=4, grid=1):
        prog = assemble(src)
        mem = GlobalMemory(1024)
        out = mem.alloc(64)
        tracer = Tracer()
        launch = LaunchConfig(grid_dim=Dim3(grid), block_dim=Dim3(*block), warp_size=warp)
        run_functional(prog, launch, mem, params={"out": out}, tracer=tracer)
        return tracer.trace

    SRC = """
.param out
    mov.u32 $a, %tid.x
    mov.u32 $i, 0
top:
    add.u32 $a, $a, 1
    add.u32 $i, $i, 1
    setp.lt.u32 $p0, $i, 3
@$p0 bra top
    shl.u32 $o, %tid.x, 2
    add.u32 $o, $o, %param.out
    st.global.s32 [$o], $a
    exit
"""

    def test_occurrence_counting(self):
        trace = self._trace(self.SRC, (4, 2))
        adds = [r for r in trace.records if r.pc == 16]
        # 2 warps x 3 iterations.
        assert len(adds) == 6
        assert sorted(r.occurrence for r in adds if r.warp_id == 0) == [0, 1, 2]

    def test_store_has_no_summary(self):
        trace = self._trace(self.SRC, (4, 2))
        stores = [r for r in trace.records if r.opclass == "store"]
        assert stores and all(r.summary.kind == NONE for r in stores)

    def test_grouping_by_tb_and_grid(self):
        trace = self._trace(self.SRC, (4, 2), grid=2)
        tb_groups = dict(trace.grouped_by_tb())
        grid_groups = dict(trace.grouped_by_grid())
        assert len(tb_groups) == 2 * len(grid_groups) or len(tb_groups) > len(grid_groups)
        # Each TB group holds one record per warp.
        assert all(len(v) == 2 for v in tb_groups.values())

    def test_metadata(self):
        trace = self._trace(self.SRC, (4, 2), grid=3)
        assert trace.num_blocks == 3
        assert trace.warps_per_block == 2
        assert trace.total_executed() == len(trace.records)

    def test_tb_grouping_is_kept_until_records_grow(self):
        trace = self._trace(self.SRC, (4, 2))
        first = dict(trace.grouped_by_tb())
        again = dict(trace.grouped_by_tb())
        assert all(again[key] is group for key, group in first.items())
        last = trace.records[-1]
        trace.records.append(DynamicInstruction(
            last.tb_index, last.warp_id, last.pc, last.occurrence + 1,
            last.opclass, last.summary, last.divergent,
        ))
        grown = dict(trace.grouped_by_tb())
        assert grown[(last.tb_index, last.pc, last.occurrence + 1)] == [trace.records[-1]]
        assert sum(map(len, grown.values())) == len(trace.records)


def _fields(rec):
    """Every field of a record, floats by bit pattern."""
    s = rec.summary
    bits = struct.pack("<dd", s.base, s.stride)
    return (rec.tb_index, rec.warp_id, rec.pc, rec.occurrence, rec.opclass,
            s.kind, bits, s.digest, rec.divergent)


class ReferenceTracer(Tracer):
    """Also summarizes each vector the moment it is recorded, one at a
    time, by the per-vector rules the bulk path replaced.

    The bulk path summarizes later, from the vectors and masks it held;
    the two agree only if nothing wrote to a register vector or a SIMT
    mask in place in between."""

    def __init__(self):
        super().__init__()
        #: ``(summary, divergent)`` per record, in record order
        self.reference = []

    def record(self, tb, warp, result):
        super().record(tb, warp, result)
        self._refer(warp, result.dest_value, result.exec_mask)

    def record_group(self, tb, warps, inst, values, exec_masks):
        """A group records each warp's row, as if the warps had run one
        at a time; ``exec_masks`` of None means every lane ran."""
        super().record_group(tb, warps, inst, values, exec_masks)
        for i, warp in enumerate(warps):
            every_lane = np.ones(warp.hw_mask.shape, dtype=bool)
            self._refer(
                warp,
                None if values is None else values[i],
                every_lane if exec_masks is None else exec_masks[i],
            )

    def _refer(self, warp, dest_value, exec_mask):
        hw = warp.hw_mask
        hw_full = np.count_nonzero(hw) == hw.size
        if dest_value is None:
            summary = ValueSummary(kind=NONE)
        else:
            values = np.asarray(dest_value)
            if not hw_full and values.shape == hw.shape:
                values = values[hw]
            summary = ValueSummary.of(values)
        if hw_full:
            divergent = np.count_nonzero(exec_mask) != exec_mask.size
        else:
            divergent = bool((hw & ~exec_mask).any())
        self.reference.append((summary, divergent))

    @property
    def trace(self):
        """The trace with the per-vector summaries and flags in place."""
        trace = super().trace
        ref = tracer_module.ExecutionTrace()
        ref.warps_per_block, ref.num_blocks = trace.warps_per_block, trace.num_blocks
        ref.records = [
            DynamicInstruction(r.tb_index, r.warp_id, r.pc, r.occurrence, r.opclass, s, d)
            for r, (s, d) in zip(trace.records, self.reference)
        ]
        return ref


def _traced(workload, tracer):
    mem, params = workload.fresh()
    run_functional(workload.program, workload.launch, mem, params=params, tracer=tracer)
    return tracer


@pytest.mark.parametrize("abbr", EXTENDED_ABBRS)
class TestBulkSummaries:
    """The batched tracer against per-vector summarizing, on every
    workload at tiny scale (partial warps, divergence, every dtype)."""

    def test_records_match_per_vector_reference(self, abbr):
        tracer = _traced(build_workload(abbr, "tiny"), ReferenceTracer())
        records = Tracer.trace.fget(tracer).records  # the bulk path's own trace
        assert len(records) == len(tracer.reference) > 0
        for rec, (summary, divergent) in zip(records, tracer.reference):
            assert type(rec.divergent) is bool
            assert _fields(rec) == _fields(DynamicInstruction(
                rec.tb_index, rec.warp_id, rec.pc, rec.occurrence, rec.opclass,
                summary, divergent,
            ))

    def test_batch_boundaries_do_not_matter(self, abbr, monkeypatch):
        workload = build_workload(abbr, "tiny")
        default = _traced(workload, Tracer()).trace
        monkeypatch.setattr(tracer_module, "BATCH_ROWS", 1)
        one_by_one = _traced(workload, Tracer()).trace
        assert list(map(_fields, one_by_one.records)) == list(map(_fields, default.records))

    def test_dac_profile_matches_per_vector_reference(self, abbr, monkeypatch):
        workload = build_workload(abbr, "tiny")

        def profile():
            mem, params = workload.fresh()
            return dac.build_dac_profile(
                workload.program, workload.launch, mem.words.copy(), params
            )

        bulk = profile()
        monkeypatch.setattr(dac, "Tracer", ReferenceTracer)
        assert bulk == profile()
