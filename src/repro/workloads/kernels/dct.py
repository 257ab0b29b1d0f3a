"""DCT8x8 — 8x8 discrete cosine transform (CUDA SDK), TB (8,8).

Each TB transforms one 8x8 tile: ``out = C . X . C^T`` as two shared-
memory passes.  In pass 1 the cosine-coefficient loads are indexed by
``tid.x`` — conditionally redundant, promoted at launch since the TB is
2D with x = 8 — and in pass 2 the intermediate tile is read at a
``tid.x``-derived column offset (unstructured TB redundancy).
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

def _kernel_source(tile: int) -> str:
    """Generate the DCT kernel with fully unrolled inner products.

    The CUDA SDK DCT8x8 kernel unrolls both 8-tap dot products; the
    unrolled form has no inner-loop branches, so DARSIE's skipping runs
    free of branch synchronization inside a tile (cf. Figure 6's
    unrolled MM loop).
    """
    head = f"""
.kernel dct
.param img
.param coef
.param out
.param width
.shared 256
    mov.u32        $tx, %tid.x
    mov.u32        $ty, %tid.y
    mul.u32        $gx, %ctaid.x, %ntid.x
    add.u32        $gx, $gx, $tx
    mul.u32        $gy, %ctaid.y, %ntid.y
    add.u32        $gy, $gy, $ty
    mul.u32        $gidx, $gy, %param.width
    add.u32        $gidx, $gidx, $gx
    shl.u32        $gaddr, $gidx, 2
    add.u32        $gaddr, $gaddr, %param.img
    ld.global.f32  $x, [$gaddr]
    # X tile at shared[0..], tmp tile at byte offset {tile * tile * 4}
    mul.u32        $si, $ty, %ntid.x
    add.u32        $si, $si, $tx
    shl.u32        $si, $si, 2
    st.shared.f32  [$si], $x
    bar.sync
    # pass 1: tmp[ty][tx] = sum_k C[tx][k] * X[ty][k]
    mov.f32        $acc, 0.0
    mul.u32        $cbase, $tx, %ntid.x
    shl.u32        $cbase, $cbase, 2
    add.u32        $cbase, $cbase, %param.coef
    mul.u32        $xbase, $ty, %ntid.x
    shl.u32        $xbase, $xbase, 2
"""
    tmp_base = tile * tile * 4
    body1 = "".join(
        f"    ld.global.f32  $c{k}, [$cbase + {4 * k}]\n"
        f"    ld.shared.f32  $xv{k}, [$xbase + {4 * k}]\n"
        f"    mad.f32        $acc, $c{k}, $xv{k}, $acc\n"
        for k in range(tile)
    )
    mid = f"""
    add.u32        $ti, $si, {tmp_base}
    st.shared.f32  [$ti], $acc
    bar.sync
    # pass 2: out[ty][tx] = sum_k C[ty][k] * tmp[k][tx]
    mov.f32        $acc2, 0.0
    mul.u32        $cb2, $ty, %ntid.x
    shl.u32        $cb2, $cb2, 2
    add.u32        $cb2, $cb2, %param.coef
    shl.u32        $tb2, $tx, 2
"""
    body2 = "".join(
        f"    ld.global.f32  $d{k}, [$cb2 + {4 * k}]\n"
        f"    ld.shared.f32  $tv{k}, [$tb2 + {tmp_base + 4 * tile * k}]\n"
        f"    mad.f32        $acc2, $d{k}, $tv{k}, $acc2\n"
        for k in range(tile)
    )
    tail = """
    shl.u32        $oaddr, $gidx, 2
    add.u32        $oaddr, $oaddr, %param.out
    st.global.f32  [$oaddr], $acc2
    exit
"""
    return head + body1 + mid + body2 + tail

_SCALE = {"tiny": (8, 1, 1), "small": (8, 4, 4), "medium": (8, 8, 8)}


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    c = np.sqrt(2.0 / n) * np.cos((2 * i + 1) * k * np.pi / (2 * n))
    c[0, :] = np.sqrt(1.0 / n)
    return c


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    tile, gx, gy = _SCALE[scale]
    width, height = tile * gx, tile * gy
    program = assemble(_kernel_source(tile), name="dct")
    launch = LaunchConfig(grid_dim=Dim3(gx, gy), block_dim=Dim3(tile, tile))
    rng = np.random.default_rng(17)
    img = rng.random((height, width)).astype(np.float64)
    coef = _dct_matrix(tile)
    expected = np.empty_like(img)
    for by in range(gy):
        for bx in range(gx):
            x = img[by * tile : (by + 1) * tile, bx * tile : (bx + 1) * tile]
            expected[by * tile : (by + 1) * tile, bx * tile : (bx + 1) * tile] = (
                coef @ x @ coef.T
            )

    def make_memory():
        mem = GlobalMemory(1 << 14)
        pimg = mem.alloc_array(img)
        pcoef = mem.alloc_array(coef)
        pout = mem.alloc(width * height)
        return mem, {"img": pimg, "coef": pcoef, "out": pout, "width": width}

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="DCT8x8",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"2D DCT over {height}x{width} image in {tile}x{tile} tiles",
    )
