"""Behavioural tests for the DAC-IDEAL baseline."""

import numpy as np
import pytest

from repro import (
    DacIdealFrontend,
    Dim3,
    GlobalMemory,
    LaunchConfig,
    Tracer,
    WorkloadRunner,
    assemble,
    build_dac_profile,
    run_functional,
    simulate,
    small_config,
)
from repro.harness import runner as runner_module
from repro.simt.tracer import AFFINE, UNIFORM
from repro.workloads import EXTENDED_ABBRS, build_workload

CFG = small_config(num_sms=1)

AFFINE_1D = """
.param out
    mul.u32 $a, %tid.x, 4
    add.u32 $b, $a, 100
    add.u32 $c, $b, %tid.y
    shl.u32 $o, %tid.x, 2
    add.u32 $o, $o, %param.out
    st.global.s32 [$o], $c
    exit
"""


def traced_profile(prog, launch, mem, params):
    """The DAC profile of a traced functional run over a copy of ``mem``."""
    copy = GlobalMemory(len(mem.words))
    copy.words[:] = mem.words
    tracer = Tracer()
    run_functional(prog, launch, copy, params=params, tracer=tracer)
    return build_dac_profile(prog, launch, tracer.trace)


def run_dac(src, block, grid=1):
    prog = assemble(src)
    launch = LaunchConfig(grid_dim=Dim3(grid), block_dim=Dim3(*block))
    mem = GlobalMemory(1 << 13)
    p = {"out": mem.alloc(256)}
    profile = traced_profile(prog, launch, mem, p)
    res = simulate(prog, launch, mem, params=p, config=CFG,
                   frontend_factory=lambda: DacIdealFrontend(profile))
    # functional reference
    mem_f = GlobalMemory(1 << 13)
    pf = {"out": mem_f.alloc(256)}
    run_functional(prog, launch, mem_f, params=pf)
    return res, profile, np.array_equal(mem.words, mem_f.words)


class TestProfile:
    def test_profile_finds_1d_affine(self):
        """DAC removes affine computation even when it is NOT redundant
        (1D tid.x chains) — its key advantage on 1D apps."""
        res, profile, ok = run_dac(AFFINE_1D, (128, 1))
        assert ok
        assert res.stats.instructions_skipped > 0
        assert "affine" in res.stats.skipped_by_class

    def test_profile_excludes_memory_ops(self):
        src = """
        .param tab
        .param out
            mul.u32 $a, %tid.x, 4
            add.u32 $a, $a, %param.tab
            ld.global.s32 $v, [$a]
            shl.u32 $o, %tid.x, 2
            add.u32 $o, $o, %param.out
            st.global.s32 [$o], $v
            exit
        """
        prog = assemble(src)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(16, 16))
        mem = GlobalMemory(1 << 13)
        p = {"tab": mem.alloc_array(np.arange(16)), "out": mem.alloc(256)}
        profile = traced_profile(prog, launch, mem, p)
        load_pc = 0x10
        assert not any(pc == load_pc for (_tb, pc, _o) in profile)

    def test_one_warp_executes_per_instance(self):
        # 4 warps; each profiled instance is free for exactly 3 of them.
        res, profile, ok = run_dac(AFFINE_1D, (128, 1))
        assert ok and profile
        assert res.stats.instructions_skipped == 3 * len(profile)


class TestTiming:
    def test_dac_faster_than_base_on_affine_kernel(self):
        src = AFFINE_1D
        prog = assemble(src)
        launch = LaunchConfig(grid_dim=Dim3(4), block_dim=Dim3(128))
        mem_b = GlobalMemory(1 << 13)
        pb = {"out": mem_b.alloc(256)}
        base = simulate(prog, launch, mem_b, params=pb, config=CFG)
        res, _, ok = run_dac(src, (128, 1), grid=4)
        assert ok
        assert res.cycles <= base.cycles


# -- the runner's profile ---------------------------------------------------------


def per_warp_rule(workload):
    """The profile as a per-warp table, by the rule of the profiling pass
    that read no other trace: an independent traced run over a fresh
    image; every complete, undiverged TB instance whose warps all wrote a
    uniform or affine value, of an instruction that writes a register and
    touches no memory, is free for warps 1..W-1."""
    mem, params = workload.fresh()
    tracer = Tracer()
    run_functional(workload.program, workload.launch, mem, params=params, tracer=tracer)
    warps = workload.launch.warps_per_block
    profile = {}
    for (tb, pc, occ), instance in tracer.trace.instances.items():
        inst = workload.program.at(pc)
        if (instance.warps != warps or instance.divergent
                or instance.uniform_warps + instance.affine_warps != warps
                or inst.is_memory
                or (inst.dest_register() is None and inst.dest_predicate() is None)):
            continue
        kind = UNIFORM if instance.uniform_warps == warps else AFFINE
        for warp in range(1, warps):
            profile[tb, warp, pc, occ] = kind
    return profile


RUNS = [(abbr, "tiny") for abbr in EXTENDED_ABBRS] + [("MM", "small"), ("LIB", "small")]


class TestRunnerProfile:
    @pytest.mark.parametrize("abbr,scale", RUNS, ids=[f"{a}-{s}" for a, s in RUNS])
    def test_matches_the_per_warp_rule(self, abbr, scale):
        runner = WorkloadRunner(build_workload(abbr, scale))
        warps = runner.workload.launch.warps_per_block
        profile = runner.dac_profile()
        per_warp = {(tb, warp, pc, occ): kind for (tb, pc, occ), kind in profile.items()
                    for warp in range(1, warps)}
        assert per_warp == per_warp_rule(build_workload(abbr, scale))

    def test_reads_the_runners_verified_trace(self, monkeypatch):
        """The profile runs nothing: the one traced pass is the runner's
        own, checked against the workload's oracle."""
        passes = []
        run = runner_module.run_functional

        def counting(*args, **kwargs):
            passes.append(kwargs.get("tracer"))
            return run(*args, **kwargs)

        monkeypatch.setattr(runner_module, "run_functional", counting)
        runner = WorkloadRunner(build_workload("MM", "tiny"))
        runner.dac_profile()
        runner.functional_trace()
        runner.run("DAC-IDEAL")
        assert len(passes) == 1 and passes[0] is not None
