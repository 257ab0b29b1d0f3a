"""IMNLM — ImageDenoisingNLM (CUDA SDK), TB (16,16).

Non-local-means-style denoise: every pixel takes an exp-weighted average
over its 3x3 neighbourhood.  The weight evaluation uses the SFU
(``ex2``) and the final normalisation divides; the column-coordinate
arithmetic descends from ``tid.x`` and is conditionally redundant.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel imnlm
.param img
.param out
.param w
.param wmax
.param hmax
.param invh
    mov.u32        $tx, %tid.x
    mov.u32        $ty, %tid.y
    mul.u32        $gx, %ctaid.x, %ntid.x
    add.u32        $gx, $gx, $tx
    mul.u32        $gy, %ctaid.y, %ntid.y
    add.u32        $gy, $gy, $ty
    mul.u32        $ci, $gy, %param.w
    add.u32        $ci, $ci, $gx
    shl.u32        $ca, $ci, 2
    add.u32        $ca, $ca, %param.img
    ld.global.f32  $c, [$ca]
    mov.f32        $accv, 0.0
    mov.f32        $accw, 0.0
    mov.u32        $i, 0
wy_loop:
    add.u32        $ny, $gy, $i
    sub.u32        $ny, $ny, 1
    max.s32        $ny, $ny, 0
    min.s32        $ny, $ny, %param.hmax
    mul.u32        $nrow, $ny, %param.w
    mov.u32        $j, 0
wx_loop:
    add.u32        $nx, $gx, $j
    sub.u32        $nx, $nx, 1
    max.s32        $nx, $nx, 0
    min.s32        $nx, $nx, %param.wmax
    add.u32        $pi, $nrow, $nx
    shl.u32        $pa, $pi, 2
    add.u32        $pa, $pa, %param.img
    ld.global.f32  $v, [$pa]
    sub.f32        $d, $v, $c
    mul.f32        $d2, $d, $d
    mul.f32        $e, $d2, %param.invh
    neg.f32        $e, $e
    ex2.f32        $wgt, $e
    mad.f32        $accv, $wgt, $v, $accv
    add.f32        $accw, $accw, $wgt
    add.u32        $j, $j, 1
    setp.lt.u32    $p0, $j, 3
@$p0 bra wx_loop
    add.u32        $i, $i, 1
    setp.lt.u32    $p1, $i, 3
@$p1 bra wy_loop
    div.f32        $r, $accv, $accw
    shl.u32        $oa, $ci, 2
    add.u32        $oa, $oa, %param.out
    st.global.f32  [$oa], $r
    exit
"""

_SCALE = {"tiny": (8, 2, 1), "small": (16, 2, 2), "medium": (16, 4, 4)}


def _oracle(img: np.ndarray, invh: float) -> np.ndarray:
    h, w = img.shape
    rows, cols = np.indices((h, w))
    accv = np.zeros_like(img)
    accw = np.zeros_like(img)
    for i in range(3):
        ny = np.clip(rows + i - 1, 0, h - 1)
        for j in range(3):
            nx = np.clip(cols + j - 1, 0, w - 1)
            v = img[ny, nx]
            d = v - img
            wgt = np.exp2(-(d * d) * invh)
            accv += wgt * v
            accw += wgt
    return accv / accw


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    tile, gx, gy = _SCALE[scale]
    w, h = tile * gx, tile * gy
    invh = 8.0
    program = assemble(KERNEL, name="imnlm")
    launch = LaunchConfig(grid_dim=Dim3(gx, gy), block_dim=Dim3(tile, tile))
    rng = np.random.default_rng(37)
    img = rng.random((h, w)).astype(np.float64)
    expected = _oracle(img, invh)

    def make_memory():
        mem = GlobalMemory(1 << 14)
        pimg = mem.alloc_array(img)
        pout = mem.alloc(w * h)
        return mem, {
            "img": pimg, "out": pout, "w": w, "wmax": w - 1,
            "hmax": h - 1, "invh": invh,
        }

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="IMNLM",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"NLM denoise, {h}x{w} image, 3x3 window",
    )
