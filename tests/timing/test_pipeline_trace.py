"""Unit tests for the pipeline trace viewer, and that a trace only
observes."""

import dataclasses
import json
import re

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
from repro.timing import PipelineTrace
from repro.timing.frontend import Frontend
from repro.timing.gpu import GPU, DeadlockError
from repro.timing.pipeline_trace import TraceEvent
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
        trace.open_wait(5, 0, 0, 0, 8)
        trace.close_wait(9, 0, 0, 0)  # a closed wait is one more record
        assert len(trace.events) == 2 and trace.dropped == 4
        assert "dropped" in trace.render()

    def test_a_wait_is_one_interval_from_its_open_to_its_close(self):
        trace = PipelineTrace()
        trace.open_wait(3, 0, 1, 2, 0x40)
        assert trace.events == [] and trace.waiting == {(0, 1, 2): (3, 0x40)}
        trace.close_wait(7, 0, 1, 2)
        assert trace.events == [TraceEvent(3, 7, 0, 1, 2, "B", 0x40)]
        assert trace.waiting == {} and trace.counts() == {"B": 4}
        assert trace.render(max_cycles=10).splitlines()[-1].endswith("...BBBB...")

    def test_a_wait_closed_in_the_tick_it_opened_is_not_recorded(self):
        trace = PipelineTrace()
        trace.open_wait(5, 0, 0, 0, 0)
        trace.close_wait(5, 0, 0, 0)
        assert trace.events == [] and trace.waiting == {}

    def test_a_cell_shows_the_event_of_highest_precedence(self):
        trace = PipelineTrace()
        trace.open_wait(1, 0, 0, 0, 0)
        trace.record(2, 0, 0, 0, "W", 0)
        trace.close_wait(4, 0, 0, 0)
        trace.record(2, 0, 0, 0, "S", 0)
        trace.record(3, 0, 0, 0, "W", 0)
        assert trace.render(max_cycles=5).splitlines()[-1].endswith(".BSW.")
        assert trace.counts() == {"B": 3, "W": 2, "S": 1}

    def test_an_open_wait_renders_to_the_window_end(self):
        """A run that raised can leave a wait open: it has no length yet,
        and the diagram draws it to the last column."""
        trace = PipelineTrace()
        trace.record(0, 0, 0, 0, "F", 0)
        trace.open_wait(2, 0, 0, 0, 0)
        assert trace.render(max_cycles=6).splitlines()[-1].endswith("F.BBBB")
        assert trace.counts() == {"F": 1}

    def test_leader_follower_summary(self):
        prog = assemble(SRC)
        analysis = analyze_program(prog)
        trace, result = traced_run(lambda: DarsieFrontend(analysis))
        summary = trace.leader_follower_summary()
        assert "skipped" in summary

    def test_empty_trace(self):
        assert "empty" in PipelineTrace().render()


def _run(variant, trace=None, abbr="LIB", scale="tiny", **overrides):
    """Run ``abbr`` at ``scale`` under ``variant`` with GPU config
    ``overrides`` and ``trace`` (a ``PipelineTrace``) attached."""
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
    if trace is not None:
        gpu.attach_trace(trace)
    result = gpu.run()
    assert runner.workload.verify(mem, params)
    return result


def _waits_by_warp(trace):
    """Each warp's wait intervals, in start order."""
    waits = {}
    for e in trace.events:
        if e.kind == "B":
            waits.setdefault((e.sm, e.tb, e.warp), []).append(e)
    return {key: sorted(found, key=lambda e: e.start) for key, found in waits.items()}


def _plain_then_traced(variant, monkeypatch, **run):
    """Run ``variant`` untraced, then traced (``run`` holds ``_run``'s
    workload, scale and GPU overrides), and check that both tick the
    same SMs on the same cycles and count every SimStats field, in total
    and per SM, the same.  Checks too that the trace's wait intervals
    are the cells a walk over the warps at the end of every tick finds
    blocked, fetch PC included.  Returns the traced run, its trace and
    the ``(sm, cycle)`` of every tick."""
    ticks = []
    blocked = set()
    tick = StagePipeline.tick

    def walked(self, cycle):
        ticks.append((self.core.sm_id, cycle))
        activity = tick(self, cycle)
        for w in self.core.warps:
            if not w.exited and (w.skip_blocked or w.branch_sync_blocked):
                blocked.add((self.core.sm_id, w.tb_rt.tb.tb_index, w.warp.warp_id,
                             cycle, w.fetch_pc))
        return activity

    monkeypatch.setattr(StagePipeline, "tick", walked)
    plain = _run(variant, **run)
    plain_ticks, plain_blocked = list(ticks), set(blocked)
    del ticks[:]
    blocked.clear()
    trace = PipelineTrace()
    traced = _run(variant, trace, **run)
    assert ticks == plain_ticks and blocked == plain_blocked
    assert traced.cycles == plain.cycles
    for f in dataclasses.fields(plain.stats):
        assert getattr(traced.stats, f.name) == getattr(plain.stats, f.name), f.name
    assert traced.per_sm_stats == plain.per_sm_stats
    # One sample per tick; every event and sample recorded.
    assert len(trace.samples) == len(ticks)
    assert trace.dropped == trace.dropped_samples == 0
    # The waits: closed, summing to each SM's sync_wait_cycles, never
    # overlapping within a warp, and covering exactly the walked cells.
    assert trace.waiting == {}
    assert trace.counts().get("B", 0) == traced.stats.sync_wait_cycles
    waits = _waits_by_warp(trace)
    for sm, stats in enumerate(traced.per_sm_stats):
        waited = sum(e.end - e.start for (s, _, _), found in waits.items()
                     if s == sm for e in found)
        assert waited == stats.sync_wait_cycles
    for found in waits.values():
        assert all(a.end <= b.start for a, b in zip(found, found[1:]))
    cells = {(e.sm, e.tb, e.warp, cycle, e.pc)
             for found in waits.values() for e in found
             for cycle in range(e.start, e.end)}
    assert cells == blocked
    return traced, trace, ticks


@pytest.mark.parametrize("variant", ["BASE", "DARSIE", "SILICON-SYNC"])
def test_a_trace_changes_nothing(variant, monkeypatch):
    """A traced run ticks the pipeline exactly as often as an untraced
    one and counts every SimStats field the same: ``sync_wait_cycles``
    is the size of the sync-blocked set on every tick in both, and the
    trace files each wait once, as an interval."""
    traced, _, ticks = _plain_then_traced(variant, monkeypatch)
    # One SM: every cycle is one tick, traced or not.
    assert ticks == [(0, cycle) for cycle in range(traced.cycles)]
    if variant != "BASE":
        assert traced.stats.sync_wait_cycles > 0


def test_a_trace_changes_nothing_on_two_sms(monkeypatch):
    """Both SMs record into the one trace, and each ticks on the same
    cycles as in the untraced run."""
    traced, trace, ticks = _plain_then_traced(
        "DARSIE", monkeypatch, abbr="BP", num_sms=2
    )
    assert {sm for sm, _ in ticks} == {0, 1}
    assert {sample["sm"] for sample in trace.samples} == {0, 1}
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


class _HoldAtBranch(Frontend):
    """Every warp waits at the first branch it executes, forever."""

    def blocks_after_branch(self, warp_rt, inst) -> bool:
        return True


def test_a_wait_open_when_the_run_raises_stays_open():
    """A run whose warps all wait at a branch forever raises at the end
    of the stagnation window (1,000 cycles outlast a DRAM access, so
    only the branch holds them).  Its waits are still open: each is in
    ``waiting`` from its start up to the last tick, none is an event
    yet, and the diagram draws each to the window's end."""
    runner = WorkloadRunner(build_workload("LIB", "tiny"))
    mem, params = runner.workload.fresh()
    gpu = GPU(runner.workload.program, runner.workload.launch, mem, params=params,
              config=runner.gpu_config.scaled(watchdog_cycles=1_000),
              frontend_factory=_HoldAtBranch)
    trace = PipelineTrace()
    gpu.attach_trace(trace)
    with pytest.raises(DeadlockError, match="no instruction executed"):
        gpu.run()
    (sm,) = gpu.sms
    live = [w for w in sm.warps if not w.exited]
    assert len(trace.waiting) == len(sm.pipeline.sync_blocked) == len(live) > 0
    assert "B" not in trace.counts()
    waited = sum(gpu.cycle - start for start, _ in trace.waiting.values())
    assert waited == sm.stats.sync_wait_cycles
    rows = trace.render(start=gpu.cycle - 5, max_cycles=10).splitlines()[2:]
    assert len(rows) == len(trace.warps()) and all(r.endswith("B" * 10) for r in rows)


def test_a_wait_heavy_small_run_fits_the_default_caps():
    """MM under DARSIE at small waits 452,264 warp-cycles: one event per
    waited cycle would overflow the default cap, one interval per wait
    fits it, so the trace drops nothing."""
    trace = PipelineTrace()
    result = _run("DARSIE", trace, abbr="MM", scale="small")
    assert trace.dropped == trace.dropped_samples == 0
    assert trace.counts()["B"] == result.stats.sync_wait_cycles > trace.max_events
    assert trace.waiting == {}
    assert len(trace.samples) == result.cycles


def test_run_prints_the_diagram_and_writes_the_samples_of_one_trace(tmp_path, capsys):
    """``--trace`` and ``--pipeline-trace`` read one recorder of one
    traced re-run: the diagram, and one JSONL row per tick."""
    from repro.__main__ import main

    path = tmp_path / "pt.jsonl"
    assert main(["run", "LIB", "--scale", "tiny", "--config", "DARSIE", "--trace",
                 "--pipeline-trace", str(path), "--no-cache"]) == 0
    out = capsys.readouterr().out
    cycles = int(re.search(r"cycles  : (\d+)", out).group(1))
    assert "pipeline trace, cycles [0, 110)" in out and "B" in out.split("cycles [0, 110)")[1]
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["cycle"] for row in rows] == list(range(cycles))
    assert f"wrote {cycles} stage-occupancy samples" in out
