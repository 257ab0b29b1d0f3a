"""DIVSQ — threshold-gated sqrt (divergent suite), TB (64,1).

Divergence with asymmetric arm cost: lanes above the threshold take the
long-latency SFU ``sqrt`` path, the rest a cheap polynomial.  The shared
``mad`` tail is the aligned pair; melding turns the SFU arm into a
predicated instruction the whole warp issues once instead of a
serialized half-warp detour.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel divsq
.param x
.param out
.param t
    mul.u32        $gid, %ctaid.x, %ntid.x
    add.u32        $gid, $gid, %tid.x
    shl.u32        $xo, $gid, 2
    add.u32        $xo, $xo, %param.x
    ld.global.f32  $xv, [$xo]
    setp.gt.f32    $p0, $xv, %param.t
@$p0 bra big_arm
    # below threshold: y = (x/2)^2 + 1/4
    mul.f32        $h, $xv, 0.5
    mad.f32        $y, $h, $h, 0.25
    bra join
big_arm:
    # above threshold: y = sqrt(x)^2 + 1/4
    sqrt.f32       $h, $xv
    mad.f32        $y, $h, $h, 0.25
join:
    shl.u32        $oo, $gid, 2
    add.u32        $oo, $oo, %param.out
    st.global.f32  [$oo], $y
    exit
"""

_SCALE = {"tiny": (64, 2), "small": (64, 12), "medium": (64, 48)}


def _oracle(x: np.ndarray, t: float) -> np.ndarray:
    small = (x * 0.5) ** 2 + 0.25
    big = np.sqrt(np.maximum(x, 0.0)) ** 2 + 0.25
    return np.where(x > t, big, small)


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    threads_per_block, blocks = _SCALE[scale]
    program = assemble(KERNEL, name="divsq")
    launch = LaunchConfig(grid_dim=Dim3(blocks), block_dim=Dim3(threads_per_block))
    rng = np.random.default_rng(17)
    total = threads_per_block * blocks
    # Positive inputs so the sqrt arm is exact against the oracle.
    x = (0.25 + rng.random(total)).astype(np.float64)
    t = 0.75
    expected = _oracle(x, t)

    def make_memory():
        mem = GlobalMemory(1 << 16)
        px = mem.alloc_array(x)
        pout = mem.alloc(total)
        return mem, {"x": px, "out": pout, "t": t}

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="DIVSQ",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"threshold-gated sqrt over {total} elements",
    )
