"""Per-stage unit tests: each stage driven in isolation against
hand-built buffer states, plus the pipeline trace's stage samples."""

import dataclasses
import json

import pytest

from repro import (
    Dim3,
    GlobalMemory,
    LaunchConfig,
    assemble,
    simulate,
    small_config,
)
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.timing import PipelineTrace
from repro.timing.buffers import IBuffer, IBufferEntry
from repro.timing.gpu import GPU
from repro.timing.stages import DualIssueStage, IssueStage
from repro.timing.stats import EnergyEvent

ALU_SRC = """
    add.u32 $a, %tid.x, 1
    add.u32 $b, $a, 2
    add.u32 $c, $b, 3
    add.u32 $d, $c, 4
    exit
"""


def make_sm(src=ALU_SRC, threads=32, config=None, frontend_factory=None):
    """A 1-SM GPU with one TB resident, stages untouched — the test
    drives individual stages by hand."""
    prog = assemble(src)
    launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(threads))
    gpu = GPU(prog, launch, GlobalMemory(1 << 12),
              config=config or small_config(1),
              frontend_factory=frontend_factory)
    sm = gpu.sms[0]
    sm.launch_tb(0)
    return gpu, sm


class TestFetchStage:
    def test_fetch_fills_one_warp_per_cycle(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        activity = pipe.fetch.tick(0)
        assert activity > 0
        w = sm.warps[0]
        assert w.ibuffer.buffered == sm.config.fetch_width
        assert sm.stats.instructions_fetched == sm.config.fetch_width
        assert sm.stats.instructions_decoded == sm.config.fetch_width
        # One I-cache probe served the whole fetch group.
        assert sm.stats.energy_events[EnergyEvent.ICACHE_FETCH] == 1

    def test_fetch_round_robins_across_warps(self):
        _, sm = make_sm(threads=64)
        pipe = sm.pipeline
        pipe.fetch.tick(0)
        pipe.fetch.tick(1)
        assert [w.ibuffer.buffered for w in sm.warps] == [2, 2]

    def test_fetch_respects_ibuffer_capacity(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        for cycle in range(10):
            pipe.fetch.tick(cycle)
        w = sm.warps[0]
        assert w.ibuffer.buffered <= sm.config.ibuffer_entries


class TestIssueStage:
    def test_issue_pops_entry_and_schedules_writeback(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        pipe.fetch.tick(0)
        w = sm.warps[0]
        before = w.ibuffer.buffered
        activity = pipe.issue.tick(1)
        assert activity > 0
        assert sm.stats.instructions_issued >= 1
        assert sm.stats.instructions_executed == sm.stats.instructions_issued
        assert w.ibuffer.buffered < before
        # the ALU result is in flight towards writeback
        assert len(pipe.wbq) >= 1
        assert ("r", "a") in w.scoreboard

    def test_scoreboard_hazard_blocks_issue(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        pipe.fetch.tick(0)
        w = sm.warps[0]
        # add.u32 $a, %tid.x, 1 writes $a; a pending write to it blocks
        w.scoreboard.add(("r", "a"))
        assert pipe.issue.tick(1) == 0
        assert sm.stats.instructions_issued == 0

    def test_zero_cost_head_is_not_issued(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        w = sm.warps[0]
        inst = sm.ctx.program.at(w.warp.pc)
        w.ibuffer.push(IBufferEntry(inst=inst, skip_token=True))
        assert pipe.issue.tick(0) == 0
        assert len(w.ibuffer) == 1  # left for the decode-skip drain


class TestDecodeSkipStage:
    def test_skip_token_advances_architectural_pc(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        w = sm.warps[0]
        inst = sm.ctx.program.at(w.warp.pc)
        w.ibuffer.push(IBufferEntry(inst=inst, skip_token=True))
        pc0 = w.warp.pc
        assert pipe.decode_skip.tick(0) == 1
        assert w.warp.pc == pc0 + INSTRUCTION_BYTES
        assert not w.ibuffer
        assert sm.stats.instructions_executed == 0

    def test_free_entry_executes_functionally_as_skip(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        w = sm.warps[0]
        inst = sm.ctx.program.at(w.warp.pc)
        w.ibuffer.push(IBufferEntry(inst=inst, free=True))
        pipe.decode_skip.tick(0)
        assert sm.stats.instructions_skipped == 1
        assert not w.ibuffer

    def test_free_entry_waits_on_hazard(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        w = sm.warps[0]
        inst = sm.ctx.program.at(w.warp.pc)  # reads %tid.x, writes $a
        w.scoreboard.add(("r", "a"))
        w.ibuffer.push(IBufferEntry(inst=inst, free=True))
        assert pipe.decode_skip.tick(0) == 0
        assert len(w.ibuffer) == 1

    def test_drain_early_outs_when_ledger_empty(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        assert pipe.zero_cost.total == 0
        assert pipe.decode_skip.tick(0) == 0

    def test_drain_visits_holders_in_age_order(self, monkeypatch):
        _, sm = make_sm(threads=128)
        pipe = sm.pipeline
        age = {w.ibuffer: w.age for w in sm.warps}
        popped = []
        pop = IBuffer.pop

        def recording_pop(ibuf):
            popped.append(age[ibuf])
            return pop(ibuf)

        monkeypatch.setattr(IBuffer, "pop", recording_pop)
        late, early = sm.warps[3], sm.warps[1]
        for w in (late, early):  # queued out of age order
            w.ibuffer.push(IBufferEntry(inst=sm.ctx.program.at(w.warp.pc), skip_token=True))
        assert pipe.zero_cost.total == 2
        assert pipe.decode_skip.tick(0) == 2
        assert popped == [early.age, late.age]
        assert pipe.zero_cost.total == 0

    @pytest.mark.parametrize("variant", ["DARSIE", "DAC-IDEAL"])
    def test_ledger_counts_every_warps_zero_cost_entries(self, variant, monkeypatch):
        from repro.harness.runner import WorkloadRunner
        from repro.timing.stages import DecodeSkipStage
        from repro.workloads import build_workload

        visits = []
        run = DecodeSkipStage.run

        def checked_run(stage, cycle):
            held = [w.ibuffer.zero_cost for w in stage.core.warps]
            assert stage.pipeline.zero_cost.total == sum(held)
            visits.append(sum(1 for n in held if n))
            return run(stage, cycle)

        monkeypatch.setattr(DecodeSkipStage, "run", checked_run)
        runner = WorkloadRunner(build_workload("LIB", "tiny"))
        assert runner.run(variant).stats.instructions_skipped > 0
        assert any(visits)


class TestWritebackStage:
    def test_due_item_releases_scoreboard(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        w = sm.warps[0]
        inst = sm.ctx.program.at(w.warp.pc)
        w.scoreboard.add(("r", "a"))
        pipe.wbq.schedule(5, w, IBufferEntry(inst))  # writes $a
        assert w.inflight == 1
        assert pipe.writeback.tick(4) == 0
        assert w.scoreboard == {("r", "a")}
        assert pipe.writeback.tick(5) == 1
        assert w.scoreboard == set()
        assert w.inflight == 0
        assert len(pipe.wbq) == 0

    def test_ties_retire_in_issue_order(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        w = sm.warps[0]
        i0 = sm.ctx.program.instructions[0]
        i1 = sm.ctx.program.instructions[1]
        pipe.wbq.schedule(3, w, IBufferEntry(i0))
        pipe.wbq.schedule(3, w, IBufferEntry(i1))
        first, second = pipe.wbq.pop_due(3)
        assert first[1].inst is i0 and second[1].inst is i1

    def test_items_retire_in_ready_order_not_issue_order(self):
        _, sm = make_sm()
        wbq = sm.pipeline.wbq
        w = sm.warps[0]
        inst = sm.ctx.program.instructions[0]
        late, early, early2, early3 = (IBufferEntry(inst) for _ in range(4))
        wbq.schedule(7, w, late)
        wbq.schedule(3, w, early)
        wbq.schedule(3, w, early2)
        assert (len(wbq), wbq.next_ready(), w.inflight) == (3, 3, 3)
        assert wbq.pop_due(2) == []
        order = [entry for _wrt, entry in wbq.pop_due(3)]
        wbq.schedule(3, w, early3)  # issued after the pops
        order += [entry for _wrt, entry in wbq.pop_due(6)]
        assert wbq.pop_due(6) == [] and wbq.next_ready() == 7
        order += [entry for _wrt, entry in wbq.pop_due(7)]
        assert order == [early, early2, early3, late]
        assert not wbq and wbq.next_ready() is None


class TestDualIssueStage:
    def _single_scheduler_config(self):
        return dataclasses.replace(small_config(1), num_schedulers=1)

    def test_dual_issue_takes_two_warps_per_cycle(self):
        cfg = self._single_scheduler_config()
        _, sm = make_sm(threads=64, config=cfg)
        pipe = sm.pipeline
        pipe.fetch.tick(0)
        pipe.fetch.tick(1)  # both warps now hold instructions
        assert isinstance(pipe.issue, IssueStage)
        single_issue = pipe.issue

        # baseline: one warp per scheduler per cycle
        n0 = sm.stats.instructions_issued
        single_issue.tick(2)
        issued_single = sm.stats.instructions_issued - n0
        warps_touched = sum(1 for w in sm.warps if w.scoreboard)
        assert warps_touched == 1

        # dual: the alternative stage issues from both warps in one tick
        _, sm2 = make_sm(threads=64, config=cfg)
        pipe2 = sm2.pipeline
        pipe2.issue = DualIssueStage(pipe2)
        for w in sm2.warps:
            pipe2.issue.add_warp(w)
        pipe2.fetch.tick(0)
        pipe2.fetch.tick(1)
        pipe2.issue.tick(2)
        warps_touched2 = sum(1 for w in sm2.warps if w.scoreboard)
        assert warps_touched2 == 2
        assert sm2.stats.instructions_issued > issued_single

    def test_dual_issue_variant_runs_end_to_end(self):
        prog = assemble(ALU_SRC)
        launch = LaunchConfig(grid_dim=Dim3(2), block_dim=Dim3(64))
        from repro.timing.frontend import DualIssueFrontend

        base = simulate(prog, launch, GlobalMemory(1 << 12),
                        config=small_config(1))
        dual = simulate(prog, launch, GlobalMemory(1 << 12),
                        config=small_config(1),
                        frontend_factory=DualIssueFrontend)
        assert dual.stats.instructions_executed == base.stats.instructions_executed
        assert dual.cycles <= base.cycles


class TestStagePipelineAssembly:
    def test_occupancy_reports_buffer_state(self):
        _, sm = make_sm()
        pipe = sm.pipeline
        pipe.fetch.tick(0)
        occ = pipe.occupancy()
        assert occ["ibuffer"] == sm.config.fetch_width
        assert occ["zero_cost"] == 0
        assert occ["inflight"] == 0

    def test_stage_names_are_distinct(self):
        _, sm = make_sm()
        names = [s.name for s in sm.pipeline.stages]
        assert len(set(names)) == len(names) == 4


class TestStageOccupancyTrace:
    def _run_traced(self):
        prog = assemble(ALU_SRC)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32))
        gpu = GPU(prog, launch, GlobalMemory(1 << 12), config=small_config(1))
        trace = PipelineTrace()
        gpu.attach_trace(trace)
        res = gpu.run()
        return res, trace

    def test_one_sample_per_busy_sm_cycle(self):
        res, trace = self._run_traced()
        assert len(trace.samples) == res.cycles
        cycles = [row["cycle"] for row in trace.samples]
        assert cycles == sorted(cycles)

    def test_samples_carry_stage_activity_and_occupancy(self):
        _, trace = self._run_traced()
        row = trace.samples[0]
        assert set(row) == {"cycle", "sm", "stages", "ibuffer",
                            "zero_cost", "inflight"}
        assert set(row["stages"]) == {"writeback", "decode-skip",
                                      "issue", "fetch"}
        totals = trace.busiest_stage()
        assert totals["fetch"] > 0 and totals["issue"] > 0

    def test_trace_does_not_change_cycle_count(self):
        prog = assemble(ALU_SRC)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32))
        plain = simulate(prog, launch, GlobalMemory(1 << 12),
                         config=small_config(1))
        res, _ = self._run_traced()
        assert res.cycles == plain.cycles

    def test_write_jsonl_round_trips(self, tmp_path):
        _, trace = self._run_traced()
        path = tmp_path / "stages.jsonl"
        lines = trace.write_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == len(rows) == len(trace.samples)
        assert rows[0]["stages"]["fetch"] >= 0

    def test_cli_pipeline_trace_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "pt.jsonl"
        assert main(["run", "MM", "--scale", "tiny", "--config", "BASE",
                     "--pipeline-trace", str(path), "--no-cache"]) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows and {"cycle", "sm", "stages"} <= set(rows[0])
        assert "stage-occupancy samples" in capsys.readouterr().out
