"""Unit tests for the pipeline trace viewer, and that a trace only
observes."""

import dataclasses

import numpy as np
import pytest

from repro import (
    DarsieFrontend,
    Dim3,
    GlobalMemory,
    LaunchConfig,
    analyze_program,
    assemble,
    small_config,
)
from repro.harness.runner import WorkloadRunner
from repro.timing import PipelineTrace, StageOccupancyTrace
from repro.timing.gpu import GPU
from repro.timing.stages import StagePipeline
from repro.workloads import build_workload

SRC = """
.param tab
.param out
    mul.u32 $a, %tid.x, 4
    add.u32 $a, $a, %param.tab
    ld.global.s32 $v, [$a]
    mul.u32 $o, %tid.y, %ntid.x
    add.u32 $o, $o, %tid.x
    shl.u32 $o, $o, 2
    add.u32 $o, $o, %param.out
    st.global.s32 [$o], $v
    exit
"""


def traced_run(frontend_factory=None):
    prog = assemble(SRC)
    mem = GlobalMemory(1 << 12)
    p = {"tab": mem.alloc_array(np.arange(8)), "out": mem.alloc(256)}
    launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(8, 8))
    gpu = GPU(prog, launch, mem, params=p, config=small_config(1),
              frontend_factory=frontend_factory)
    trace = PipelineTrace()
    gpu.attach_trace(trace)
    result = gpu.run()
    return trace, result


class TestTrace:
    def test_base_run_records_fetch_issue_writeback(self):
        trace, result = traced_run()
        counts = trace.counts()
        assert counts["F"] == result.stats.instructions_fetched
        assert counts["I"] == result.stats.instructions_issued
        assert counts.get("S", 0) == 0

    def test_darsie_run_records_skips_and_blocks(self):
        prog = assemble(SRC)
        analysis = analyze_program(prog)
        trace, result = traced_run(lambda: DarsieFrontend(analysis))
        counts = trace.counts()
        assert counts["S"] == result.stats.instructions_skipped
        assert counts.get("B", 0) == result.stats.sync_wait_cycles

    def test_render_shows_legend_and_rows(self):
        trace, _ = traced_run()
        text = trace.render(max_cycles=50)
        assert "F=fetch" in text
        assert "sm0 tb0 w0" in text

    def test_event_cap(self):
        trace = PipelineTrace(max_events=2)
        for i in range(5):
            trace.record(i, 0, 0, 0, "F", 0)
        assert len(trace.events) == 2 and trace.dropped == 3
        assert "dropped" in trace.render()

    def test_leader_follower_summary(self):
        prog = assemble(SRC)
        analysis = analyze_program(prog)
        trace, result = traced_run(lambda: DarsieFrontend(analysis))
        summary = trace.leader_follower_summary()
        assert "skipped" in summary

    def test_empty_trace(self):
        assert "empty" in PipelineTrace().render()


def _run(variant, traces=(), abbr="LIB", scale="tiny", **overrides):
    """Run ``abbr`` at ``scale`` under ``variant`` with GPU config
    ``overrides`` and ``traces`` (a ``PipelineTrace``, then a
    ``StageOccupancyTrace``) attached."""
    runner = WorkloadRunner(build_workload(abbr, scale))
    mem, params = runner.workload.fresh()
    gpu = GPU(
        runner.simulation_program(variant),
        runner.workload.launch,
        mem,
        params=params,
        config=runner.gpu_config.scaled(**overrides),
        frontend_factory=runner.frontend_factory(variant),
    )
    if traces:
        gpu.attach_trace(traces[0])
        gpu.attach_stage_trace(traces[1])
    result = gpu.run()
    assert runner.workload.verify(mem, params)
    return result


def _plain_then_traced(variant, monkeypatch, **run):
    """Run ``variant`` untraced, then traced (``run`` holds ``_run``'s
    workload, scale and GPU overrides), and check that both tick the
    same SMs on the same cycles and count every SimStats field, in total
    and per SM, the same.  Returns the traced run, its stage trace and
    the ``(sm, cycle)`` of every tick."""
    ticks = []
    tick = StagePipeline.tick

    def counted(self, cycle):
        ticks.append((self.core.sm_id, cycle))
        return tick(self, cycle)

    monkeypatch.setattr(StagePipeline, "tick", counted)
    plain = _run(variant, **run)
    plain_ticks = list(ticks)
    del ticks[:]
    events, samples = PipelineTrace(), StageOccupancyTrace()
    traced = _run(variant, (events, samples), **run)
    assert ticks == plain_ticks
    assert traced.cycles == plain.cycles
    for f in dataclasses.fields(plain.stats):
        assert getattr(traced.stats, f.name) == getattr(plain.stats, f.name), f.name
    assert traced.per_sm_stats == plain.per_sm_stats
    # One sample per tick, and one wait event per sync-blocked warp-cycle.
    assert len(samples.samples) == len(ticks)
    assert events.counts().get("B", 0) == traced.stats.sync_wait_cycles
    return traced, samples, ticks


@pytest.mark.parametrize("variant", ["BASE", "DARSIE", "SILICON-SYNC"])
def test_a_trace_changes_nothing(variant, monkeypatch):
    """A traced run ticks the pipeline exactly as often as an untraced
    one and counts every SimStats field the same.  Its
    ``sync_wait_cycles`` comes from walking the warps and recording each
    blocked one; the untraced run's from the size of the sync-blocked
    set."""
    traced, _, ticks = _plain_then_traced(variant, monkeypatch)
    # One SM: every cycle is one tick, traced or not.
    assert ticks == [(0, cycle) for cycle in range(traced.cycles)]
    if variant != "BASE":
        assert traced.stats.sync_wait_cycles > 0


def test_a_trace_changes_nothing_on_two_sms(monkeypatch):
    """Both SMs record into the one pair of traces, and each ticks on the
    same cycles as in the untraced run."""
    traced, samples, ticks = _plain_then_traced(
        "DARSIE", monkeypatch, abbr="BP", num_sms=2
    )
    assert {sm for sm, _ in ticks} == {0, 1}
    assert {sample["sm"] for sample in samples.samples} == {0, 1}
    assert all(s.instructions_executed > 0 for s in traced.per_sm_stats)


@pytest.mark.parametrize("ports,stalls", [
    ("rename_ports", "rename_port_stalls"),
    ("version_table_ports", "version_table_port_stalls"),
], ids=["rename_ports", "version_table_ports"])
def test_a_trace_changes_nothing_with_finite_ports(ports, stalls, monkeypatch):
    """A port budget is state of the cycle it is spent in; a traced run
    stalls on the same ports on the same cycles as an untraced one.  (No
    tiny workload stalls on one version-table port; BP at small does.)"""
    traced, _, _ = _plain_then_traced(
        "DARSIE", monkeypatch, abbr="BP", scale="small", **{ports: 1}
    )
    assert getattr(traced.stats, stalls) > 0
