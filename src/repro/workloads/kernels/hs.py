"""HS — HotSpot thermal stencil (Rodinia), TB (16,16).

One explicit time step of the 5-point thermal diffusion stencil over the
chip temperature grid, with clamped boundaries.  The thermal constants
are uniform kernel parameters; the column half of the index arithmetic
descends from ``tid.x`` and is conditionally redundant.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel hs
.param temp
.param power
.param out
.param w
.param wmax
.param hmax
.param cap
.param rx
.param ry
.param rz
.param amb
    mov.u32        $tx, %tid.x
    mov.u32        $ty, %tid.y
    mul.u32        $gx, %ctaid.x, %ntid.x
    add.u32        $gx, $gx, $tx
    mul.u32        $gy, %ctaid.y, %ntid.y
    add.u32        $gy, $gy, $ty
    # clamped neighbour coordinates
    sub.u32        $xl, $gx, 1
    max.s32        $xl, $xl, 0
    add.u32        $xr, $gx, 1
    min.s32        $xr, $xr, %param.wmax
    sub.u32        $yu, $gy, 1
    max.s32        $yu, $yu, 0
    add.u32        $yd, $gy, 1
    min.s32        $yd, $yd, %param.hmax
    # centre
    mul.u32        $idx, $gy, %param.w
    add.u32        $idx, $idx, $gx
    shl.u32        $a, $idx, 2
    add.u32        $ac, $a, %param.temp
    ld.global.f32  $tc, [$ac]
    # east / west
    mul.u32        $t, $gy, %param.w
    add.u32        $t, $t, $xr
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.temp
    ld.global.f32  $te, [$t]
    mul.u32        $t, $gy, %param.w
    add.u32        $t, $t, $xl
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.temp
    ld.global.f32  $tw, [$t]
    # north / south
    mul.u32        $t, $yu, %param.w
    add.u32        $t, $t, $gx
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.temp
    ld.global.f32  $tn, [$t]
    mul.u32        $t, $yd, %param.w
    add.u32        $t, $t, $gx
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.temp
    ld.global.f32  $ts, [$t]
    # power
    add.u32        $ap, $a, %param.power
    ld.global.f32  $p, [$ap]
    # delta = cap * (p + rx*(te+tw-2c) + ry*(tn+ts-2c) + rz*(amb-c))
    add.f32        $ew, $te, $tw
    mad.f32        $ew, $tc, -2.0, $ew
    add.f32        $ns, $tn, $ts
    mad.f32        $ns, $tc, -2.0, $ns
    sub.f32        $vz, %param.amb, $tc
    mul.f32        $acc, $ew, %param.rx
    mad.f32        $acc, $ns, %param.ry, $acc
    mad.f32        $acc, $vz, %param.rz, $acc
    add.f32        $acc, $acc, $p
    mul.f32        $delta, $acc, %param.cap
    add.f32        $nt, $tc, $delta
    add.u32        $ao, $a, %param.out
    st.global.f32  [$ao], $nt
    exit
"""

_SCALE = {"tiny": (8, 2, 1), "small": (16, 4, 2), "medium": (16, 8, 4)}


def _oracle(temp, power, cap, rx, ry, rz, amb):
    h, w = temp.shape
    rows, cols = np.indices((h, w))
    te = temp[rows, np.minimum(cols + 1, w - 1)]
    tw = temp[rows, np.maximum(cols - 1, 0)]
    tn = temp[np.maximum(rows - 1, 0), cols]
    ts = temp[np.minimum(rows + 1, h - 1), cols]
    delta = cap * (
        power + rx * (te + tw - 2 * temp) + ry * (tn + ts - 2 * temp) + rz * (amb - temp)
    )
    return temp + delta


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    tile, gx, gy = _SCALE[scale]
    w, h = tile * gx, tile * gy
    program = assemble(KERNEL, name="hs")
    launch = LaunchConfig(grid_dim=Dim3(gx, gy), block_dim=Dim3(tile, tile))
    rng = np.random.default_rng(23)
    temp = (60.0 + 20.0 * rng.random((h, w))).astype(np.float64)
    power = rng.random((h, w)).astype(np.float64)
    cap, rx, ry, rz, amb = 0.5, 0.1, 0.1, 0.05, 80.0
    expected = _oracle(temp, power, cap, rx, ry, rz, amb)

    def make_memory():
        mem = GlobalMemory(1 << 16)
        pt = mem.alloc_array(temp)
        pp = mem.alloc_array(power)
        po = mem.alloc(w * h)
        return mem, {
            "temp": pt, "power": pp, "out": po, "w": w, "wmax": w - 1,
            "hmax": h - 1, "cap": cap, "rx": rx, "ry": ry, "rz": rz, "amb": amb,
        }

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="HS",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"thermal stencil step over {h}x{w} grid",
    )
