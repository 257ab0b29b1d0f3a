"""Unit tests for the tracer and value summaries."""

import numpy as np
import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, Tracer, assemble, run_functional
from repro.baselines import dac
from repro.simt import tracer as tracer_module
from repro.simt.executor import ExecutionContext, FunctionalEngine, run_threadblocks
from repro.simt.memory import KernelParams
from repro.simt.tracer import (
    AFFINE, ExecutionTrace, NONE, RedundancyClass, UNIFORM, UNSTRUCTURED, ValueSummary,
)
from repro.workloads import EXTENDED_ABBRS, build_workload
from tests.flat_trace import (
    FlatTracer, StubInst, StubTB, StubWarp, reference_table, table_bits,
)


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
    def _run(self, src, block, warp=4, grid=1, tracer=None):
        prog = assemble(src)
        mem = GlobalMemory(1024)
        out = mem.alloc(64)
        tracer = tracer or FlatTracer()
        launch = LaunchConfig(grid_dim=Dim3(grid), block_dim=Dim3(*block), warp_size=warp)
        engine = run_functional(prog, launch, mem, params={"out": out}, tracer=tracer)
        assert len(tracer.trace) == engine.instructions_executed
        return tracer

    def _trace(self, src, block, warp=4, grid=1, tracer=None):
        return self._run(src, block, warp, grid, tracer).trace

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
        tracer = self._run(self.SRC, (4, 2))
        adds = [r for r in tracer.records if r.pc == 16]
        # 2 warps x 3 iterations.
        assert len(adds) == 6
        assert sorted(r.occurrence for r in adds if r.warp_id == 0) == [0, 1, 2]
        assert [(key, i.warps) for key, i in tracer.trace.instances.items() if key[1] == 16] == [
            ((0, 16, occ), 2) for occ in range(3)
        ]

    def test_store_has_no_summary(self):
        trace = self._trace(self.SRC, (4, 2))
        store_pcs = {inst.pc for inst in assemble(self.SRC).instructions if inst.is_store}
        stores = [trace.instances[(0, pc, 0)] for pc in store_pcs]
        assert stores and all(i.summary.kind == NONE and i.uniform_warps == i.affine_warps == 0
                              for i in stores)
        assert all(i.redundancy is RedundancyClass.NON_REDUNDANT for i in stores)

    def test_instances_per_tb(self):
        trace = self._trace(self.SRC, (4, 2), grid=2)
        by_tb = {}
        for tb, pc, occ in trace.instances:
            by_tb.setdefault(tb, []).append((pc, occ))
        # Both TBs run the same instances, each by both warps.
        assert by_tb[0] == by_tb[1] and len(by_tb) == 2
        assert all(i.warps == 2 for i in trace.instances.values())

    def test_metadata(self):
        trace = self._trace(self.SRC, (4, 2), grid=3)
        assert trace.num_blocks == 3
        assert trace.warps_per_block == 2
        assert len(trace) == sum(i.warps for i in trace.instances.values())

    def test_an_instance_that_grows_is_classified_again(self):
        """An instance read before all its warps ran is not redundant;
        read again after the rest fold in, it is, until a warp with
        another value or a divergent one joins."""
        warps = [StubWarp(w, 4) for w in range(3)]
        tb = StubTB(0, warps)
        tracer = Tracer()
        tracer.begin_block(tb)
        five = np.full(4, 5)
        tracer.record_group(tb, warps[:1], StubInst(8), five[None], None)
        first = tracer.trace.instances[(0, 8, 0)]
        assert (first.warps, first.redundancy) == (1, RedundancyClass.NON_REDUNDANT)
        tracer.record_group(tb, warps[1:], StubInst(8), np.array([five, five]), None)
        full = tracer.trace.instances[(0, 8, 0)]
        assert (full.warps, full.uniform_warps, full.redundancy) == (3, 3, RedundancyClass.UNIFORM)
        assert full.summary == first.summary == ValueSummary(UNIFORM, 5.0)
        # The second occurrence: warp 2 ran it under divergence.
        tracer.record_group(tb, warps[:2], StubInst(8), np.array([five, five]), None)
        tracer.record_group(tb, warps[2:], StubInst(8), [five], [np.array([1, 1, 0, 1], bool)])
        second = tracer.trace.instances[(0, 8, 1)]
        assert (second.warps, second.uniform_warps, second.divergent) == (3, 2, True)
        assert second.redundancy is RedundancyClass.NON_REDUNDANT

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
        assert table_bits(read_often.instances) == table_bits(once.instances)
        join = assemble(self.STAGGERED).labels["join"]
        assert once.instances[(0, join, 0)].redundancy is RedundancyClass.UNIFORM


class ReadingTracer(FlatTracer):
    """Reads its trace after every record, and checks that what it read
    equals the per-warp reference of the records so far."""

    def record_group(self, tb, warps, inst, values, exec_masks):
        super().record_group(tb, warps, inst, values, exec_masks)
        trace = self.trace
        assert table_bits(trace.instances) == table_bits(
            reference_table(self.records, trace.warps_per_block)
        )


class ReferenceTracer(FlatTracer):
    """Its trace is the table rebuilt from the per-warp records, each
    summarized the moment it was recorded by the per-vector rules.

    The bulk path summarizes later, from the vectors and masks it held;
    the two agree only if nothing wrote to a register vector or a SIMT
    mask in place in between."""

    @property
    def trace(self):
        bulk = super().trace
        ref = ExecutionTrace()
        ref.warps_per_block, ref.num_blocks = bulk.warps_per_block, bulk.num_blocks
        ref.instances = reference_table(self.records, bulk.warps_per_block)
        return ref


def _traced(workload, tracer):
    mem, params = workload.fresh()
    run_functional(workload.program, workload.launch, mem, params=params, tracer=tracer)
    return tracer


@pytest.mark.parametrize("abbr", EXTENDED_ABBRS)
class TestBulkSummaries:
    """The batched tracer on every workload at tiny scale (partial
    warps, divergence, every dtype): the table must not depend on where
    the batches end or on when it is read.  ``tests/analysis/
    test_trace_table.py`` checks its consumers against the per-warp
    reference."""

    def test_records_match_per_vector_reference(self, abbr):
        """Every warp's record, summarized at record time, folds into
        the instance the bulk path stores, field for field."""
        tracer = _traced(build_workload(abbr, "tiny"), ReferenceTracer())
        bulk = Tracer.trace.fget(tracer)  # the bulk path's own trace
        assert len(bulk) == len(tracer.records) > 0
        assert table_bits(bulk.instances) == table_bits(tracer.trace.instances)

    def test_batch_boundaries_do_not_matter(self, abbr, monkeypatch):
        workload = build_workload(abbr, "tiny")
        default = _traced(workload, Tracer()).trace
        monkeypatch.setattr(tracer_module, "BATCH_ROWS", 1)
        one_by_one = _traced(workload, Tracer()).trace
        assert table_bits(one_by_one.instances) == table_bits(default.instances)
        assert len(one_by_one) == len(default)

    def test_reads_mid_run_do_not_matter(self, abbr):
        """A trace read after each threadblock, and again at the end,
        equals a single read at the end; so does one read after every
        record, which folds rows into instances read before."""
        workload = build_workload(abbr, "tiny")
        once = table_bits(_traced(workload, Tracer()).trace.instances)

        def run(tracer):
            mem, params = workload.fresh()
            ctx = ExecutionContext(program=workload.program, launch=workload.launch,
                                   memory=mem, params=KernelParams(params))
            for _tb in run_threadblocks(FunctionalEngine(ctx, tracer=tracer)):
                table_bits(tracer.trace.instances)
            return table_bits(tracer.trace.instances)

        assert run(Tracer()) == once
        assert run(ReadingTracer()) == once

    def test_dac_profile_matches_per_vector_reference(self, abbr):
        workload = build_workload(abbr, "tiny")

        def profile(tracer):
            trace = _traced(workload, tracer).trace
            return dac.build_dac_profile(workload.program, workload.launch, trace)

        assert profile(Tracer()) == profile(ReferenceTracer())
