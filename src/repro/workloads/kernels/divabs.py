"""DIVABS — sign-dependent rescale (divergent suite), TB (128,1).

Data-dependent divergence: lanes branch on the *sign of their input*,
so the split ratio follows the data (~50/50 for the standard-normal
inputs) instead of the thread index.  The negative arm carries one
extra instruction (the negate), which exercises the melder's handling
of unequal arm lengths; the trailing ``add`` is the aligned pair.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel divabs
.param x
.param out
.param s
.param b
    mul.u32        $gid, %ctaid.x, %ntid.x
    add.u32        $gid, $gid, %tid.x
    shl.u32        $xo, $gid, 2
    add.u32        $xo, $xo, %param.x
    ld.global.f32  $xv, [$xo]
    setp.lt.f32    $p0, $xv, 0.0
@$p0 bra neg_arm
    # non-negative lanes: y = x*s + b
    mul.f32        $m, $xv, %param.s
    add.f32        $y, $m, %param.b
    bra join
neg_arm:
    # negative lanes: y = (-x)*s + b
    neg.f32        $nx, $xv
    mul.f32        $m, $nx, %param.s
    add.f32        $y, $m, %param.b
join:
    shl.u32        $oo, $gid, 2
    add.u32        $oo, $oo, %param.out
    st.global.f32  [$oo], $y
    exit
"""

_SCALE = {"tiny": (128, 1), "small": (128, 8), "medium": (128, 32)}


def _oracle(x: np.ndarray, s: float, b: float) -> np.ndarray:
    return np.abs(x) * s + b


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    threads_per_block, blocks = _SCALE[scale]
    program = assemble(KERNEL, name="divabs")
    launch = LaunchConfig(grid_dim=Dim3(blocks), block_dim=Dim3(threads_per_block))
    rng = np.random.default_rng(13)
    total = threads_per_block * blocks
    x = rng.standard_normal(total).astype(np.float64)
    s, b = 0.75, 0.125
    expected = _oracle(x, s, b)

    def make_memory():
        mem = GlobalMemory(1 << 16)
        px = mem.alloc_array(x)
        pout = mem.alloc(total)
        return mem, {"x": px, "out": pout, "s": s, "b": b}

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="DIVABS",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"sign-dependent rescale over {total} elements",
    )
