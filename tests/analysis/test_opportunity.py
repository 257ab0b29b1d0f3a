"""Unit tests for the per-PC opportunity profiler."""

import numpy as np
import pytest

from repro import (
    DarsieFrontend,
    Dim3,
    GlobalMemory,
    LaunchConfig,
    Marking,
    Tracer,
    analyze_program,
    assemble,
    run_functional,
    simulate,
    small_config,
)
from repro.analysis import opportunity_report
from repro.harness.runner import WorkloadRunner
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def mm_report():
    runner = WorkloadRunner(build_workload("MM", "tiny"))
    return opportunity_report(
        runner.analysis, runner.functional_trace(), runner.workload.launch
    ), runner


class TestReport:
    def test_covers_every_static_instruction(self, mm_report):
        report, runner = mm_report
        assert len(report.rows) == len(runner.workload.program)

    def test_executions_sum_to_trace(self, mm_report):
        report, runner = mm_report
        assert sum(r.executions for r in report.rows) == report.total_executions

    def test_mm_captures_all_redundancy(self, mm_report):
        """Regular MM has no blockers: everything redundant is skippable."""
        report, _ = mm_report
        assert report.captured_fraction() == 1.0
        assert report.lost() == []

    def test_render(self, mm_report):
        report, _ = mm_report
        text = report.render(limit=5)
        assert "skippable" in text and "0x" in text


class TestBlockers:
    def test_store_and_atomic_blockers(self):
        runner = WorkloadRunner(build_workload("FWS", "tiny"))
        report = opportunity_report(
            runner.analysis, runner.functional_trace(), runner.workload.launch
        )
        by_pc = {r.pc: r for r in report.rows}
        stores = [i for i in runner.workload.program.instructions if i.is_store]
        # Stores never skip; when their inputs happen to be redundant the
        # profiler names the reason.
        for st in stores:
            assert not by_pc[st.pc].skippable
            if by_pc[st.pc].redundant_executions:
                assert by_pc[st.pc].blocker == "no destination register"

    def test_1d_blockers_are_failed_promotion(self):
        runner = WorkloadRunner(build_workload("FW", "tiny"))
        report = opportunity_report(
            runner.analysis, runner.functional_trace(), runner.workload.launch
        )
        # FW (1D) has some incidentally redundant vector-marked work.
        vec_lost = [
            r for r in report.lost()
            if r.promoted is Marking.VECTOR and r.blocker
        ]
        for r in vec_lost:
            assert "vector" in r.blocker


#: three DR register-producing PCs (the block's table address and its
#: load, :data:`BLOCK_LOAD_DR`), then per-thread vector work
BLOCK_LOAD = """
.param tab
.param out
    mul.u32        $b, %ctaid.x, 4
    add.u32        $b, $b, %param.tab
    ld.global.s32  $v, [$b]
    shl.u32        $o, %tid.x, 2
    add.u32        $o, $o, %param.out
    st.global.s32  [$o], $v
    exit
"""
BLOCK_LOAD_DR = {0x00, 0x08, 0x10}


class TestOneSkippabilityRule:
    """The report calls skippable exactly the PCs DARSIE skips, for one
    warp per threadblock (nothing: no followers) and for two."""

    @pytest.mark.parametrize("threads", [32, 64])
    def test_the_report_agrees_with_darsie(self, threads):
        program = assemble(BLOCK_LOAD)
        analysis = analyze_program(program)
        launch = LaunchConfig(grid_dim=Dim3(2), block_dim=Dim3(threads))

        def fresh():
            mem = GlobalMemory(1 << 12)
            tab = mem.alloc_array(np.arange(2) + 7)
            return mem, {"tab": tab, "out": mem.alloc(2 * threads)}

        mem, params = fresh()
        tracer = Tracer()
        run_functional(program, launch, mem, params=params, tracer=tracer)
        report = opportunity_report(analysis, tracer.trace, launch)

        frontends = []

        def factory():
            frontends.append(DarsieFrontend(analysis))
            return frontends[-1]

        mem, params = fresh()
        sim = simulate(program, launch, mem, params=params,
                       config=small_config(1), frontend_factory=factory)
        (frontend,) = frontends
        skippable = {r.pc for r in report.rows if r.skippable}
        assert skippable == frontend.skip_pcs
        dr = [r for r in report.rows if r.pc in BLOCK_LOAD_DR]
        assert all(r.promoted is Marking.REDUNDANT and r.redundant_executions for r in dr)
        if launch.warps_per_block > 1:
            assert skippable == BLOCK_LOAD_DR
            assert sim.stats.instructions_skipped > 0
        else:
            assert skippable == set()
            assert sim.stats.instructions_skipped == 0
            assert report.captured_fraction() == 0.0
            assert {r.blocker for r in dr} == {"single-warp threadblock"}
