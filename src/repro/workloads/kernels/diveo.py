"""DIVEO — even/odd lane split (divergent suite), TB (64,1).

The worst case for SIMT divergence: every warp splits exactly in half on
thread-id parity, so the baseline serializes both if-arms of every
dynamic branch at 50 % lane occupancy.  The two arms share their leading
square (``mul.f32 $sq, $xv, $xv``) and differ in the rest, giving the
melder one aligned pair and four predicable instructions — alignment
similarity 1/3, just over the DARM profitability bar.

Not part of Table 1; registered in the divergent suite used by the
melding verifier and the ``compare-techniques`` matrix.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel diveo
.param x
.param out
.param a
    mul.u32        $gid, %ctaid.x, %ntid.x
    add.u32        $gid, $gid, %tid.x
    shl.u32        $xo, $gid, 2
    add.u32        $xo, $xo, %param.x
    ld.global.f32  $xv, [$xo]
    and.u32        $lsb, $gid, 1
    setp.eq.u32    $p0, $lsb, 1
@$p0 bra odd_arm
    # even lanes: y = x*a + 1 + x^2
    mul.f32        $sq, $xv, $xv
    mad.f32        $y, $xv, %param.a, 1.0
    add.f32        $y, $y, $sq
    bra join
odd_arm:
    # odd lanes: y = x*a - 1 - x^2
    mul.f32        $sq, $xv, $xv
    mad.f32        $y, $xv, %param.a, -1.0
    sub.f32        $y, $y, $sq
join:
    shl.u32        $oo, $gid, 2
    add.u32        $oo, $oo, %param.out
    st.global.f32  [$oo], $y
    exit
"""

_SCALE = {"tiny": (64, 2), "small": (64, 16), "medium": (64, 64)}


def _oracle(x: np.ndarray, a: float) -> np.ndarray:
    idx = np.arange(x.size)
    even = x * a + 1.0 + x * x
    odd = x * a - 1.0 - x * x
    return np.where(idx % 2 == 1, odd, even)


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    threads_per_block, blocks = _SCALE[scale]
    program = assemble(KERNEL, name="diveo")
    launch = LaunchConfig(grid_dim=Dim3(blocks), block_dim=Dim3(threads_per_block))
    rng = np.random.default_rng(11)
    total = threads_per_block * blocks
    x = rng.standard_normal(total).astype(np.float64)
    a = 1.5
    expected = _oracle(x, a)

    def make_memory():
        mem = GlobalMemory(1 << 16)
        px = mem.alloc_array(x)
        pout = mem.alloc(total)
        return mem, {"x": px, "out": pout, "a": a}

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="DIVEO",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"even/odd lane split over {total} elements",
    )
