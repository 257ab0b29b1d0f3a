"""The executor's decode table: lifetime and aliasing invariants.

Each engine decodes a static instruction once into a micro-op, and once
more into a group micro-op when a lock-stepped round runs it.  These
tests pin what makes that safe: neither kind holds a reference to its
engine (so an engine and its global memory die with their last user,
without waiting for the cyclic GC), and the vectors they share
between executions are read-only.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, assemble, run_functional
from repro.simt.executor import ExecutionContext, FunctionalEngine, ThreadBlockState
from repro.simt.memory import KernelParams

#: Touches every micro-op kind: ALU, SFU, setp/selp, guarded writes,
#: shared and global loads/stores, a global atomic, a divergent branch,
#: a barrier and exit.
KERNEL = """
.param out
.param ctr
.shared 16
    shl.u32 $o, %tid.x, 2
    st.shared.s32 [$o], %laneid
    bar.sync
    ld.shared.s32 $v, [$o]
    setp.lt.s32 $p0, %tid.x, 3
    selp.s32 $w, $v, 9, $p0
@!$p0 bra skip
    sqrt.f32 $w, 16.0
skip:
    add.u32 $a, $o, %param.out
    st.global.f32 [$a], $w
    atom.global.add.s32 $old, [%param.ctr], 1
    exit
"""


def _launch():
    return LaunchConfig(grid_dim=Dim3(2), block_dim=Dim3(6), warp_size=4)


def _run():
    mem = GlobalMemory(1024)
    params = {"out": mem.alloc(32), "ctr": mem.alloc(1)}
    return run_functional(assemble(KERNEL), _launch(), mem, params=params)


def _group_ops(engine):
    """The group micro-ops an engine decoded (None marks an instruction
    whose warps always run one at a time)."""
    return [op for _inst, op in engine._group_decoded.values() if op is not None]


def _reachable(fn):
    """Everything a function's closure cells lead to, through nested
    functions and tuples."""
    seen, stack, out = set(), [fn], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, tuple):
            stack.extend(obj)
    return out


class TestLifetime:
    def test_engine_is_freed_without_the_cyclic_gc(self):
        gc.collect()
        gc.disable()
        try:
            engine = _run()
            assert engine._decoded, "the run should have filled the decode table"
            assert _group_ops(engine), "and run lock-stepped rounds as groups"
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_micro_ops_hold_no_engine(self):
        engine = _run()
        group_ops = _group_ops(engine)
        assert group_ops
        for micro_op in [op for _inst, op in engine._decoded.values()] + group_ops:
            assert all(obj is not engine for obj in _reachable(micro_op))


class TestAliasing:
    @pytest.mark.parametrize(
        "operand",
        ["7", "2.5", "%param.k", "%ntid.x", "%nctaid.x", "%laneid", "%smem_base",
         "%tid.x", "%warpid"],
    )
    def test_shared_operand_vectors_are_read_only(self, operand):
        for dtype in ("s32", "f32"):
            prog = assemble(f".param k\nadd.{dtype} $r1, $r0, {operand}\nexit")
            ctx = ExecutionContext(
                program=prog, launch=_launch(), memory=GlobalMemory(64),
                params=KernelParams({"k": 5}),
            )
            engine = FunctionalEngine(ctx)
            tb = ThreadBlockState(ctx, 1)
            engine.execute_instruction(tb, tb.warps[1], prog.at(0))
            (_inst, micro_op), = engine._decoded.values()
            shared = [o for o in _reachable(micro_op) if isinstance(o, np.ndarray)]
            assert shared, f"{operand} should be bound as a vector at decode time"
            for vector in shared:
                with pytest.raises(ValueError):
                    vector[0] = 1

    def test_ctaid_vectors_are_read_only_and_per_tb(self):
        ctx = ExecutionContext(
            program=assemble("exit"), launch=_launch(), memory=GlobalMemory(64),
            params=KernelParams({}),
        )
        tb = ThreadBlockState(ctx, 1)
        assert tb.ctaid("x") is tb.ctaid("x")
        assert tb.ctaid("x").tolist() == [1] * 4
        with pytest.raises(ValueError):
            tb.ctaid("x")[0] = 0

    @pytest.mark.parametrize("source", ["7", "1.5", "%tid.x", "%param.k", "%laneid"])
    def test_mov_of_a_shared_vector_leaves_a_writable_register(self, source):
        prog = assemble(f".param k\nmov.s32 $r1, {source}\nexit")
        ctx = ExecutionContext(
            program=prog, launch=_launch(), memory=GlobalMemory(64),
            params=KernelParams({"k": 5}),
        )
        engine = FunctionalEngine(ctx)
        tb = ThreadBlockState(ctx, 0)
        warp = tb.warps[0]
        result = engine.execute_instruction(tb, warp, prog.at(0))
        register = warp.registers.read("r1")
        register[0] = 42
        assert register is result.dest_value  # stored without a copy
        assert warp.registers.read("r1")[0] == 42
