"""Unit tests for the functional executor: per-opcode semantics,
predication, divergence, barriers, memory."""

import numpy as np
import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, assemble, run_functional
from repro.simt.executor import ExecutionError


def run(src, block=(8, 1), grid=1, warp=4, params=None, words=4096, tracer=None):
    prog = assemble(src)
    mem = GlobalMemory(words)
    launch = LaunchConfig(grid_dim=Dim3(grid), block_dim=Dim3(*block), warp_size=warp)
    out = mem.alloc(256, name="out")
    p = {"out": out}
    p.update(params or {})
    engine = run_functional(prog, launch, mem, params=p, tracer=tracer)
    return mem, out, engine


def out_ints(mem, out, n):
    return mem.read_array(out, n, dtype=np.int64).tolist()


STORE_TAIL = """
    shl.u32 $__o, %tid.x, 2
    add.u32 $__o, $__o, %param.out
    st.global.s32 [$__o], $res
    exit
"""
STORE_TAIL_F = STORE_TAIL.replace(".s32", ".f32")


class TestArithmetic:
    def test_add_sub_mul(self):
        mem, out, _ = run(".param out\nmov.u32 $a, 10\nmul.u32 $a, $a, 3\n"
                          "sub.u32 $a, $a, 5\nadd.u32 $res, $a, %tid.x\n" + STORE_TAIL)
        assert out_ints(mem, out, 8) == [25 + i for i in range(8)]

    def test_mad(self):
        mem, out, _ = run(".param out\nmad.u32 $res, %tid.x, 10, 7\n" + STORE_TAIL)
        assert out_ints(mem, out, 8) == [7 + 10 * i for i in range(8)]

    def test_min_max_abs_neg(self):
        mem, out, _ = run(
            ".param out\nsub.s32 $d, %tid.x, 4\nabs.s32 $a, $d\nneg.s32 $n, $d\n"
            "min.s32 $m, $a, $n\nmax.s32 $res, $m, 0\n" + STORE_TAIL
        )
        d = np.arange(8) - 4
        expected = np.maximum(np.minimum(np.abs(d), -d), 0)
        assert out_ints(mem, out, 8) == expected.tolist()

    def test_bitwise_and_shifts(self):
        mem, out, _ = run(
            ".param out\nand.u32 $a, %tid.x, 3\nshl.u32 $b, $a, 4\n"
            "shr.u32 $c, $b, 2\nxor.u32 $d, $c, 1\nor.u32 $res, $d, 8\n" + STORE_TAIL
        )
        a = np.arange(8) & 3
        expected = (((a << 4) >> 2) ^ 1) | 8
        assert out_ints(mem, out, 8) == expected.tolist()

    def test_div_rem_truncation(self):
        mem, out, _ = run(
            ".param out\nadd.s32 $t, %tid.x, 1\ndiv.s32 $q, 17, $t\n"
            "rem.s32 $r, 17, $t\nmad.s32 $res, $q, 100, $r\n" + STORE_TAIL
        )
        got = out_ints(mem, out, 8)
        for i, v in enumerate(got):
            q, r = divmod(17, i + 1)
            assert v == q * 100 + r

    def test_div_by_zero_is_quiet(self):
        mem, out, _ = run(".param out\ndiv.s32 $res, 5, %tid.x\n" + STORE_TAIL)
        assert out_ints(mem, out, 2)[0] == 0  # lane 0 divides by zero -> 0


class TestFloatOps:
    def test_sqrt_rcp(self):
        mem, out, _ = run(
            ".param out\ncvt.f32 $f, %tid.x\nmad.f32 $f, $f, $f, 1.0\n"
            "sqrt.f32 $s, $f\nrcp.f32 $res, $s\n" + STORE_TAIL_F
        )
        got = mem.read_array(out, 8)
        expected = 1.0 / np.sqrt(np.arange(8) ** 2 + 1.0)
        assert np.allclose(got, expected)

    def test_ex2_lg2_sin_cos(self):
        mem, out, _ = run(
            ".param out\ncvt.f32 $f, %tid.x\nmul.f32 $f, $f, 0.25\n"
            "ex2.f32 $a, $f\nlg2.f32 $b, $a\nsin.f32 $s, $b\ncos.f32 $c, $b\n"
            "mul.f32 $s, $s, $s\nmad.f32 $res, $c, $c, $s\n" + STORE_TAIL_F
        )
        got = mem.read_array(out, 8)
        assert np.allclose(got, 1.0)  # sin^2 + cos^2

    def test_selp(self):
        mem, out, _ = run(
            ".param out\nsetp.ge.u32 $p0, %tid.x, 4\n"
            "selp.s32 $res, 111, 222, $p0\n" + STORE_TAIL
        )
        assert out_ints(mem, out, 8) == [222] * 4 + [111] * 4


class TestSpecials:
    def test_ids_and_dims(self):
        mem, out, _ = run(
            ".param out\nmul.u32 $a, %ctaid.x, 1000\nmad.u32 $b, %ntid.x, 100, $a\n"
            "add.u32 $res, $b, %laneid\n" + STORE_TAIL, grid=2
        )
        # Both blocks store to the same per-tid slots; block 1 (executed
        # last by the sequential functional runner) wins: 1*1000 + 8*100.
        assert out_ints(mem, out, 4) == [1800 + i for i in range(4)]

    def test_warpid(self):
        mem, out, _ = run(
            ".param out\nmov.u32 $res, %warpid\n"
            "mul.u32 $__o, %tid.x, 4\nadd.u32 $__o, $__o, %param.out\n"
            "st.global.s32 [$__o], $res\nexit\n"
        )
        assert out_ints(mem, out, 8) == [0] * 4 + [1] * 4


class TestPredication:
    def test_guard_masks_writes(self):
        mem, out, _ = run(
            ".param out\nmov.u32 $res, 5\nsetp.lt.u32 $p0, %tid.x, 3\n"
            "@$p0 mov.u32 $res, 9\n" + STORE_TAIL
        )
        assert out_ints(mem, out, 8) == [9, 9, 9, 5, 5, 5, 5, 5]

    def test_negated_guard(self):
        mem, out, _ = run(
            ".param out\nmov.u32 $res, 5\nsetp.lt.u32 $p0, %tid.x, 3\n"
            "@!$p0 mov.u32 $res, 1\n" + STORE_TAIL
        )
        assert out_ints(mem, out, 8) == [5, 5, 5, 1, 1, 1, 1, 1]


class TestControlFlow:
    def test_uniform_loop(self):
        mem, out, _ = run(
            ".param out\nmov.u32 $res, 0\nmov.u32 $i, 0\n"
            "top:\nadd.u32 $res, $res, 2\nadd.u32 $i, $i, 1\n"
            "setp.lt.u32 $p0, $i, 5\n@$p0 bra top\n" + STORE_TAIL
        )
        assert out_ints(mem, out, 8) == [10] * 8

    def test_divergent_branch_reconverges(self):
        mem, out, _ = run(
            ".param out\nmov.u32 $res, 0\nand.u32 $odd, %tid.x, 1\n"
            "setp.eq.u32 $p0, $odd, 1\n@$p0 bra odd\n"
            "add.u32 $res, $res, 100\nbra join\n"
            "odd:\nadd.u32 $res, $res, 200\n"
            "join:\nadd.u32 $res, $res, 7\n" + STORE_TAIL
        )
        assert out_ints(mem, out, 8) == [107, 207] * 4

    def test_per_lane_trip_counts(self):
        """Lanes iterate tid.x times — the stack must handle lanes
        leaving the loop at different iterations."""
        mem, out, _ = run(
            ".param out\nmov.u32 $res, 0\nmov.u32 $i, 0\n"
            "top:\nsetp.lt.u32 $p0, $i, %tid.x\n@!$p0 bra done\n"
            "add.u32 $res, $res, 3\nadd.u32 $i, $i, 1\nbra top\n"
            "done:\n" + STORE_TAIL
        )
        assert out_ints(mem, out, 8) == [3 * i for i in range(8)]

    def test_barrier_orders_shared_memory(self):
        # Thread i writes s[i]; after the barrier reads s[(i+1)%n].
        mem, out, _ = run(
            ".param out\n.shared 64\nshl.u32 $a, %tid.x, 2\n"
            "mul.u32 $v, %tid.x, 11\nst.shared.s32 [$a], $v\n"
            "bar.sync\n"
            "add.u32 $n, %tid.x, 1\nand.u32 $n, $n, 7\nshl.u32 $b, $n, 2\n"
            "ld.shared.s32 $res, [$b]\n" + STORE_TAIL
        )
        assert out_ints(mem, out, 8) == [11 * ((i + 1) % 8) for i in range(8)]


class TestMemoryOps:
    def test_gather_load(self):
        mem = GlobalMemory(4096)
        table = mem.alloc_array(np.arange(100, 164))
        prog = assemble(
            ".param tab\n.param out\nshl.u32 $a, %tid.x, 2\nadd.u32 $a, $a, %param.tab\n"
            "ld.global.s32 $res, [$a]\nshl.u32 $o, %tid.x, 2\nadd.u32 $o, $o, %param.out\n"
            "st.global.s32 [$o], $res\nexit"
        )
        out = mem.alloc(64)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(8), warp_size=4)
        run_functional(prog, launch, mem, params={"tab": table, "out": out})
        assert mem.read_array(out, 8, dtype=np.int64).tolist() == list(range(100, 108))

    def test_atomic_add_serialises(self):
        mem = GlobalMemory(1024)
        counter = mem.alloc(1)
        prog = assemble(
            ".param ctr\natom.global.add.u32 $old, [%param.ctr], 1\nexit"
        )
        launch = LaunchConfig(grid_dim=Dim3(2), block_dim=Dim3(8), warp_size=4)
        run_functional(prog, launch, mem, params={"ctr": counter})
        assert mem.read_array(counter, 1, dtype=np.int64)[0] == 16

    def test_runaway_kernel_detected(self):
        prog = assemble("top:\nbra top\nexit")
        mem = GlobalMemory(64)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(4), warp_size=4)
        with pytest.raises(ExecutionError, match="exceeded"):
            run_functional(prog, launch, mem, max_steps=1000)
