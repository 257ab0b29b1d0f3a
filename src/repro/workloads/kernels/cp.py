"""CP — Coulombic potential (GPGPU-Sim distribution), TB (16,8).

Each thread accumulates the electrostatic potential at one lattice point
over all atoms.  Atom records are loaded at loop-index addresses —
uniform redundant — the x-distance chain descends from ``tid.x``
(conditionally redundant), and the distance/rsqrt arithmetic is vector
SFU work.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel cp
.param ax
.param ay
.param aw
.param natoms
.param out
.param w
.param spacing
    mov.u32        $tx, %tid.x
    mov.u32        $ty, %tid.y
    mul.u32        $gxi, %ctaid.x, %ntid.x
    add.u32        $gxi, $gxi, $tx
    mul.u32        $gyi, %ctaid.y, %ntid.y
    add.u32        $gyi, $gyi, $ty
    cvt.f32        $px, $gxi
    mul.f32        $px, $px, %param.spacing
    cvt.f32        $py, $gyi
    mul.f32        $py, $py, %param.spacing
    mov.f32        $acc, 0.0
    mov.u32        $j, 0
atom_loop:
    shl.u32        $ao, $j, 2
    add.u32        $t, $ao, %param.ax
    ld.global.f32  $axj, [$t]
    add.u32        $t, $ao, %param.ay
    ld.global.f32  $ayj, [$t]
    add.u32        $t, $ao, %param.aw
    ld.global.f32  $awj, [$t]
    sub.f32        $dx, $px, $axj
    sub.f32        $dy, $py, $ayj
    mul.f32        $r2, $dx, $dx
    mad.f32        $r2, $dy, $dy, $r2
    sqrt.f32       $r, $r2
    rcp.f32        $rinv, $r
    mad.f32        $acc, $awj, $rinv, $acc
    add.u32        $j, $j, 1
    setp.lt.u32    $p0, $j, %param.natoms
@$p0 bra atom_loop
    mul.u32        $idx, $gyi, %param.w
    add.u32        $idx, $idx, $gxi
    shl.u32        $o, $idx, 2
    add.u32        $o, $o, %param.out
    st.global.f32  [$o], $acc
    exit
"""

_SCALE = {"tiny": (8, 4, 1, 1, 8), "small": (16, 8, 4, 2, 24), "medium": (16, 8, 4, 4, 64)}


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    bx, by, gx, gy, natoms = _SCALE[scale]
    w, h = bx * gx, by * gy
    spacing = 0.5
    program = assemble(KERNEL, name="cp")
    launch = LaunchConfig(grid_dim=Dim3(gx, gy), block_dim=Dim3(bx, by))
    rng = np.random.default_rng(29)
    # Atoms off the lattice plane so r^2 is never zero.
    ax = (rng.random(natoms) * w * spacing + 0.21).astype(np.float64)
    ay = (rng.random(natoms) * h * spacing + 0.37).astype(np.float64)
    aw = rng.random(natoms).astype(np.float64)
    xs = np.arange(w) * spacing
    ys = np.arange(h) * spacing
    px, py = np.meshgrid(xs, ys)
    expected = np.zeros((h, w))
    for j in range(natoms):
        r = np.sqrt((px - ax[j]) ** 2 + (py - ay[j]) ** 2)
        expected += aw[j] / r

    def make_memory():
        mem = GlobalMemory(1 << 14)
        pax = mem.alloc_array(ax)
        pay = mem.alloc_array(ay)
        paw = mem.alloc_array(aw)
        pout = mem.alloc(w * h)
        return mem, {
            "ax": pax, "ay": pay, "aw": paw, "natoms": natoms,
            "out": pout, "w": w, "spacing": spacing,
        }

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-7)

    return Workload(
        abbr="CP",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"coulombic potential, {h}x{w} lattice x {natoms} atoms",
    )
