"""CONVTEX — convolutionTexture row pass (CUDA SDK), TB (16,16).

Separable convolution along rows with clamped borders.  Filter weights
load at loop-index addresses (uniform redundant); the column index chain
descends from ``tid.x`` (conditionally redundant); pixel loads mix the
row coordinate in and stay vector.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel convtex
.param img
.param wts
.param out
.param w
.param wmax
.param taps
.param radius
    mov.u32        $tx, %tid.x
    mov.u32        $ty, %tid.y
    mul.u32        $gx, %ctaid.x, %ntid.x
    add.u32        $gx, $gx, $tx
    mul.u32        $gy, %ctaid.y, %ntid.y
    add.u32        $gy, $gy, $ty
    mul.u32        $rowbase, $gy, %param.w
    mov.f32        $acc, 0.0
    mov.u32        $k, 0
tap_loop:
    shl.u32        $wo, $k, 2
    add.u32        $wo, $wo, %param.wts
    ld.global.f32  $wt, [$wo]
    add.u32        $xc, $gx, $k
    sub.u32        $xc, $xc, %param.radius
    max.s32        $xc, $xc, 0
    min.s32        $xc, $xc, %param.wmax
    add.u32        $pi, $rowbase, $xc
    shl.u32        $pa, $pi, 2
    add.u32        $pa, $pa, %param.img
    ld.global.f32  $v, [$pa]
    mad.f32        $acc, $wt, $v, $acc
    add.u32        $k, $k, 1
    setp.lt.u32    $p0, $k, %param.taps
@$p0 bra tap_loop
    add.u32        $oi, $rowbase, $gx
    shl.u32        $oa, $oi, 2
    add.u32        $oa, $oa, %param.out
    st.global.f32  [$oa], $acc
    exit
"""

_SCALE = {"tiny": (8, 2, 1, 1), "small": (16, 4, 2, 2), "medium": (16, 8, 4, 2)}


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    tile, gx, gy, radius = _SCALE[scale][0], _SCALE[scale][1], _SCALE[scale][2], _SCALE[scale][3]
    w, h = tile * gx, tile * gy
    taps = 2 * radius + 1
    program = assemble(KERNEL, name="convtex")
    launch = LaunchConfig(grid_dim=Dim3(gx, gy), block_dim=Dim3(tile, tile))
    rng = np.random.default_rng(31)
    img = rng.random((h, w)).astype(np.float64)
    wts = rng.random(taps).astype(np.float64)
    wts /= wts.sum()
    cols = np.arange(w)
    expected = np.zeros_like(img)
    for k in range(taps):
        xc = np.clip(cols + k - radius, 0, w - 1)
        expected += wts[k] * img[:, xc]

    def make_memory():
        mem = GlobalMemory(1 << 16)
        pimg = mem.alloc_array(img)
        pwts = mem.alloc_array(wts)
        pout = mem.alloc(w * h)
        return mem, {
            "img": pimg, "wts": pwts, "out": pout, "w": w,
            "wmax": w - 1, "taps": taps, "radius": radius,
        }

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="CONVTEX",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"row convolution, {h}x{w} image, {taps} taps",
    )
