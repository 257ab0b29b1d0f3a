"""SR1 — SRAD v1 diffusion-coefficient kernel (Rodinia), TB (512,1).

Speckle-reducing anisotropic diffusion over a flattened 2D image with a
1D TB: per pixel, four clamped neighbour loads, directional derivatives,
and an SFU-heavy coefficient computation (divides).  Row/column recovery
from the flat index uses shifts (the image width is a power of two).
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel sr1
.param img
.param out
.param log2w
.param wmask
.param hmax
.param q0
    mul.u32        $idx, %ctaid.x, %ntid.x
    add.u32        $idx, $idx, %tid.x
    shr.u32        $row, $idx, %param.log2w
    and.u32        $col, $idx, %param.wmask
    # clamped neighbour rows/cols
    sub.u32        $rn, $row, 1
    max.s32        $rn, $rn, 0
    add.u32        $rs, $row, 1
    min.s32        $rs, $rs, %param.hmax
    sub.u32        $cw, $col, 1
    max.s32        $cw, $cw, 0
    add.u32        $ce, $col, 1
    min.s32        $ce, $ce, %param.wmask
    # centre value
    shl.u32        $a0, $idx, 2
    add.u32        $a0, $a0, %param.img
    ld.global.f32  $jc, [$a0]
    # north
    mov.u32        $one, 1
    shl.u32        $t, $rn, %param.log2w
    add.u32        $t, $t, $col
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.img
    ld.global.f32  $jn, [$t]
    # south
    shl.u32        $t, $rs, %param.log2w
    add.u32        $t, $t, $col
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.img
    ld.global.f32  $js, [$t]
    # west
    shl.u32        $t, $row, %param.log2w
    add.u32        $t, $t, $cw
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.img
    ld.global.f32  $jw, [$t]
    # east
    shl.u32        $t, $row, %param.log2w
    add.u32        $t, $t, $ce
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.img
    ld.global.f32  $je, [$t]
    # directional derivatives
    sub.f32        $dn, $jn, $jc
    sub.f32        $ds, $js, $jc
    sub.f32        $dw, $jw, $jc
    sub.f32        $de, $je, $jc
    # g2 = (dn^2+ds^2+dw^2+de^2) / jc^2 ; l = (dn+ds+dw+de)/jc
    mul.f32        $g2, $dn, $dn
    mad.f32        $g2, $ds, $ds, $g2
    mad.f32        $g2, $dw, $dw, $g2
    mad.f32        $g2, $de, $de, $g2
    mul.f32        $jc2, $jc, $jc
    div.f32        $g2, $g2, $jc2
    add.f32        $l, $dn, $ds
    add.f32        $l, $l, $dw
    add.f32        $l, $l, $de
    div.f32        $l, $l, $jc
    # qsqr = (0.5*g2 - l^2/16) / (1 + 0.25*l)^2
    mul.f32        $num, $g2, 0.5
    mul.f32        $l2, $l, $l
    mad.f32        $num, $l2, -0.0625, $num
    mad.f32        $den, $l, 0.25, 1.0
    mul.f32        $den, $den, $den
    div.f32        $q, $num, $den
    # c = 1 / (1 + (q - q0)/(q0*(1+q0))) clamped to [0, 1]
    sub.f32        $d2, $q, %param.q0
    mad.f32        $scl, %param.q0, %param.q0, %param.q0
    div.f32        $d2, $d2, $scl
    add.f32        $d2, $d2, 1.0
    rcp.f32        $c, $d2
    max.f32        $c, $c, 0.0
    min.f32        $c, $c, 1.0
    shl.u32        $o, $idx, 2
    add.u32        $o, $o, %param.out
    st.global.f32  [$o], $c
    exit
"""

_SCALE = {"tiny": (64, 2, 16, 8), "small": (512, 2, 32, 32), "medium": (512, 8, 64, 64)}


def _oracle(img2d: np.ndarray, q0: float) -> np.ndarray:
    h, w = img2d.shape
    rows, cols = np.indices((h, w))
    jn = img2d[np.maximum(rows - 1, 0), cols]
    js = img2d[np.minimum(rows + 1, h - 1), cols]
    jw = img2d[rows, np.maximum(cols - 1, 0)]
    je = img2d[rows, np.minimum(cols + 1, w - 1)]
    jc = img2d
    dn, ds, dw, de = jn - jc, js - jc, jw - jc, je - jc
    g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc)
    l = (dn + ds + dw + de) / jc
    num = 0.5 * g2 - (l * l) / 16.0
    den = (1.0 + 0.25 * l) ** 2
    q = num / den
    c = 1.0 / (1.0 + (q - q0) / (q0 * (1.0 + q0)))
    return np.clip(c, 0.0, 1.0)


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    threads, blocks, w, h = _SCALE[scale]
    assert threads * blocks == w * h, "grid must cover the image exactly"
    program = assemble(KERNEL, name="sr1")
    launch = LaunchConfig(grid_dim=Dim3(blocks), block_dim=Dim3(threads))
    rng = np.random.default_rng(13)
    img = (0.5 + rng.random((h, w))).astype(np.float64)
    q0 = 0.05
    expected = _oracle(img, q0)

    def make_memory():
        mem = GlobalMemory(1 << 16)
        pimg = mem.alloc_array(img)
        pout = mem.alloc(w * h)
        return mem, {
            "img": pimg, "out": pout, "log2w": int(np.log2(w)),
            "wmask": w - 1, "hmax": h - 1, "q0": q0,
        }

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="SR1",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"SRAD diffusion coefficients over {h}x{w} image",
    )
