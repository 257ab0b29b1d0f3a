"""Unit tests for the tracer and value summaries."""

import struct

import numpy as np
import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, Tracer, assemble, run_functional
from repro.baselines import dac
from repro.simt import tracer as tracer_module
from repro.simt.executor import ExecutionContext, FunctionalEngine, run_threadblocks
from repro.simt.memory import KernelParams
from repro.simt.tracer import (
    AFFINE, DynamicInstruction, ExecutionTrace, NONE, RedundancyClass, UNIFORM, UNSTRUCTURED,
    ValueSummary,
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


def _records(trace):
    """``(tb, warp, pc, occurrence) -> record`` over the whole table."""
    return {
        (tb, rec.warp_id, pc, occ): rec
        for (tb, pc, occ), instance in trace.instances.items()
        for rec in instance.records
    }


class TestTracer:
    def _trace(self, src, block, warp=4, grid=1, tracer=None):
        prog = assemble(src)
        mem = GlobalMemory(1024)
        out = mem.alloc(64)
        tracer = tracer or Tracer()
        launch = LaunchConfig(grid_dim=Dim3(grid), block_dim=Dim3(*block), warp_size=warp)
        engine = run_functional(prog, launch, mem, params={"out": out}, tracer=tracer)
        assert len(tracer.trace) == engine.instructions_executed
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
        adds = [key for key in _records(trace) if key[2] == 16]
        # 2 warps x 3 iterations.
        assert len(adds) == 6
        assert sorted(occ for _tb, warp, _pc, occ in adds if warp == 0) == [0, 1, 2]

    def test_store_has_no_summary(self):
        trace = self._trace(self.SRC, (4, 2))
        store_pcs = {inst.pc for inst in assemble(self.SRC).instructions if inst.is_store}
        stores = [rec for key, rec in _records(trace).items() if key[2] in store_pcs]
        assert stores and all(r.summary.kind == NONE for r in stores)
        assert all(trace.instances[(0, pc, 0)].redundancy is RedundancyClass.NON_REDUNDANT
                   for pc in store_pcs)

    def test_instances_per_tb(self):
        trace = self._trace(self.SRC, (4, 2), grid=2)
        by_tb = {}
        for tb, pc, occ in trace.instances:
            by_tb.setdefault(tb, []).append((pc, occ))
        # Both TBs run the same instances, each with one record per warp.
        assert by_tb[0] == by_tb[1] and len(by_tb) == 2
        for instance in trace.instances.values():
            assert [r.warp_id for r in instance.records] == [0, 1]

    def test_metadata(self):
        trace = self._trace(self.SRC, (4, 2), grid=3)
        assert trace.num_blocks == 3
        assert trace.warps_per_block == 2
        assert len(trace) == sum(len(i.records) for i in trace.instances.values())

    def test_an_instance_that_grows_is_classified_again(self):
        trace = self._trace(self.SRC, (4, 2))
        key = (0, 0x08, 0)  # mov.u32 $i, 0: uniform in both warps
        instance = trace.instances[key]
        assert instance.redundancy is RedundancyClass.UNIFORM
        trace.file([key], [instance.records[0]])
        assert instance.redundancy is None
        assert trace.instances[key].redundancy is RedundancyClass.NON_REDUNDANT
        assert len(instance.records) == 3

    #: warp 1 takes two more instructions than warp 0 to reach ``join``,
    #: so each instance after it is filed one warp at a time
    STAGGERED = """
.param out
    setp.eq.u32 $p0, %warpid, 0
@$p0 bra join
    add.u32 $a, %tid.x, 2
    add.u32 $a, $a, 3
join:
    mov.u32 $x, 5
    add.u32 $y, $x, 1
    shl.u32 $o, %tid.x, 2
    add.u32 $o, $o, %param.out
    st.global.s32 [$o], $y
    exit
"""

    def test_reads_while_an_instance_fills_stay_exact(self):
        once = self._trace(self.STAGGERED, (4, 2))
        read_often = self._trace(self.STAGGERED, (4, 2), tracer=ReadingTracer())
        assert _table(read_often) == _table(once)
        join = assemble(self.STAGGERED).labels["join"]
        assert once.instances[(0, join, 0)].redundancy is RedundancyClass.UNIFORM


def _fields(rec):
    """Every field of a record, floats by bit pattern."""
    s = rec.summary
    bits = struct.pack("<dd", s.base, s.stride)
    return (rec.warp_id, s.kind, bits, s.digest, rec.divergent)


def _table(trace):
    """The whole table, in order: each instance's key, class and records."""
    return [
        (key, instance.redundancy, list(map(_fields, instance.records)))
        for key, instance in trace.instances.items()
    ]


class ReferenceTracer(Tracer):
    """Also summarizes each vector the moment it is recorded, one at a
    time, by the per-vector rules the bulk path replaced.

    The bulk path summarizes later, from the vectors and masks it held;
    the two agree only if nothing wrote to a register vector or a SIMT
    mask in place in between."""

    def __init__(self):
        super().__init__()
        #: ``(tb, warp, pc, occurrence) -> (summary, divergent)``
        self.reference = {}
        self._executed = {}

    def record_group(self, tb, warps, inst, values, exec_masks):
        """A group records each warp's row, as if the warps had run one
        at a time; ``exec_masks`` of None means every lane ran.  A
        per-warp :meth:`record` arrives here as a group of one."""
        super().record_group(tb, warps, inst, values, exec_masks)
        for i, warp in enumerate(warps):
            every_lane = np.ones(warp.hw_mask.shape, dtype=bool)
            site = (tb.tb_index, warp.warp_id, inst.pc)
            occ = self._executed.get(site, 0)
            self._executed[site] = occ + 1
            self.reference[site + (occ,)] = self._refer(
                warp,
                None if values is None else values[i],
                every_lane if exec_masks is None else exec_masks[i],
            )

    @staticmethod
    def _refer(warp, dest_value, exec_mask):
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
        return summary, divergent

    @property
    def trace(self):
        """The trace with the per-vector summaries and flags in place."""
        trace = super().trace
        ref = ExecutionTrace()
        ref.warps_per_block, ref.num_blocks = trace.warps_per_block, trace.num_blocks
        for (tb, pc, occ), instance in trace.instances.items():
            ref.file([(tb, pc, occ)] * len(instance.records), [
                DynamicInstruction(r.warp_id, *self.reference[(tb, r.warp_id, pc, occ)])
                for r in instance.records
            ])
        return ref


class ReadingTracer(Tracer):
    """Reads its trace after every record."""

    def record_group(self, tb, warps, inst, values, exec_masks):
        super().record_group(tb, warps, inst, values, exec_masks)
        _table(self.trace)


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
        trace = Tracer.trace.fget(tracer)  # the bulk path's own trace
        records = _records(trace)
        assert len(records) == len(trace) == len(tracer.reference) > 0
        for key, rec in records.items():
            assert type(rec.divergent) is bool
            assert _fields(rec) == _fields(DynamicInstruction(rec.warp_id, *tracer.reference[key]))

    def test_batch_boundaries_do_not_matter(self, abbr, monkeypatch):
        workload = build_workload(abbr, "tiny")
        default = _traced(workload, Tracer()).trace
        monkeypatch.setattr(tracer_module, "BATCH_ROWS", 1)
        one_by_one = _traced(workload, Tracer()).trace
        assert _table(one_by_one) == _table(default)

    def test_reads_mid_run_do_not_matter(self, abbr):
        """A trace read after each threadblock, and again at the end,
        equals a single read at the end; so does one read after every
        record, which classifies instances that later grow."""
        workload = build_workload(abbr, "tiny")
        once = _table(_traced(workload, Tracer()).trace)

        def run(tracer):
            mem, params = workload.fresh()
            ctx = ExecutionContext(program=workload.program, launch=workload.launch,
                                   memory=mem, params=KernelParams(params))
            for _tb in run_threadblocks(FunctionalEngine(ctx, tracer=tracer)):
                _table(tracer.trace)
            return _table(tracer.trace)

        assert run(Tracer()) == once
        assert run(ReadingTracer()) == once

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
