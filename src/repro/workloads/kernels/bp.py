"""BP — Backprop layer-forward (Rodinia), TB (16,16).

Each TB computes partial hidden-unit activations for a 16-input chunk:
per-thread input x weight products land in shared memory, then a
barrier-separated tree reduction over the input axis (``tid.y``)
produces one partial sum per hidden unit (``tid.x``).  The hidden-unit
index chain is ``tid.x``-based (conditionally redundant); weight and
input loads are vector.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel bp
.param inp
.param wts
.param out
.param nhid
.shared 512
    mov.u32        $tx, %tid.x
    mov.u32        $ty, %tid.y
    # hidden unit index (tid.x chain) and input index (tid.y chain)
    mul.u32        $hx, %ctaid.x, %ntid.x
    add.u32        $hx, $hx, $tx
    mul.u32        $iy, %ctaid.y, %ntid.y
    add.u32        $iy, $iy, $ty
    # product = in[iy] * w[iy][hx]
    shl.u32        $ia, $iy, 2
    add.u32        $ia, $ia, %param.inp
    ld.global.f32  $inv, [$ia]
    mul.u32        $wi, $iy, %param.nhid
    add.u32        $wi, $wi, $hx
    shl.u32        $wa, $wi, 2
    add.u32        $wa, $wa, %param.wts
    ld.global.f32  $wv, [$wa]
    mul.f32        $prod, $inv, $wv
    mul.u32        $si, $ty, %ntid.x
    add.u32        $si, $si, $tx
    shl.u32        $sa, $si, 2
    st.shared.f32  [$sa], $prod
    bar.sync
    # tree reduction over tid.y
    shr.u32        $p, %ntid.y, 1
red_loop:
    setp.lt.u32    $p0, $ty, $p
@$p0 add.u32       $oi, $ty, $p
@$p0 mul.u32       $oi, $oi, %ntid.x
@$p0 add.u32       $oi, $oi, $tx
@$p0 shl.u32       $oa, $oi, 2
@$p0 ld.shared.f32 $other, [$oa]
@$p0 ld.shared.f32 $mine, [$sa]
@$p0 add.f32       $mine, $mine, $other
@$p0 st.shared.f32 [$sa], $mine
    bar.sync
    shr.u32        $p, $p, 1
    setp.gt.u32    $p1, $p, 0
@$p1 bra red_loop
    # row 0 writes the partial sums: out[ctaid.y * nhid_total + hx]
    setp.eq.u32    $p2, $ty, 0
@$p2 mul.u32       $nb, %nctaid.x, %ntid.x
@$p2 mul.u32       $ob, %ctaid.y, $nb
@$p2 add.u32       $ob, $ob, $hx
@$p2 shl.u32       $ob, $ob, 2
@$p2 add.u32       $ob, $ob, %param.out
@$p2 ld.shared.f32 $res, [$sa]
@$p2 st.global.f32 [$ob], $res
    exit
"""

_SCALE = {"tiny": (8, 1, 2), "small": (16, 2, 2), "medium": (16, 4, 4)}


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    tile, gx, gy = _SCALE[scale]
    nhid = tile * gx
    nin = tile * gy
    program = assemble(KERNEL, name="bp")
    launch = LaunchConfig(grid_dim=Dim3(gx, gy), block_dim=Dim3(tile, tile))
    rng = np.random.default_rng(41)
    inp = rng.standard_normal(nin).astype(np.float64)
    wts = rng.standard_normal((nin, nhid)).astype(np.float64)
    # Partial sums per (input-chunk, hidden unit).
    expected = np.zeros((gy, nhid))
    for by in range(gy):
        chunk = slice(by * tile, (by + 1) * tile)
        expected[by] = inp[chunk] @ wts[chunk]

    def make_memory():
        mem = GlobalMemory(1 << 14)
        pin = mem.alloc_array(inp)
        pw = mem.alloc_array(wts)
        pout = mem.alloc(gy * nhid)
        return mem, {"inp": pin, "wts": pw, "out": pout, "nhid": nhid}

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="BP",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"layer-forward partials, {nin} inputs x {nhid} hidden",
    )
