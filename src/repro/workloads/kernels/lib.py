"""LIB — LIBOR market-model Monte Carlo (GPGPU-Sim distribution), TB (256,1).

Each thread evolves one interest-rate path.  The per-maturity drift /
volatility chain depends only on kernel parameters and the maturity
index — uniform across the whole TB — while the final path update uses
the thread's own random increment.  This is the paper's extreme 1D case:
~75 % of LIB's instructions are uniform-redundant and DARSIE removes
them (Figure 9), but the kernel "contains no __syncthreads()", making it
the worst case for branch synchronization (Figure 12: 50 % slowdown
under SILICON-SYNC).
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel lib
.param lam
.param z
.param out
.param n
.param delta
    # linear thread id across the grid
    mul.u32        $gid, %ctaid.x, %ntid.x
    add.u32        $gid, $gid, %tid.x
    shl.u32        $zo, $gid, 2
    add.u32        $zo, $zo, %param.z
    ld.global.f32  $zv, [$zo]
    mov.f32        $L, 0.05
    mov.u32        $j, 0
mat_loop:
    # -- uniform drift/volatility chain (parameters + maturity index) --
    shl.u32        $lo, $j, 2
    add.u32        $lo, $lo, %param.lam
    ld.global.f32  $lamj, [$lo]
    mul.f32        $con1, $lamj, %param.delta
    mul.f32        $v1, $con1, $lamj
    mad.f32        $v2, $v1, %param.delta, 1.0
    rcp.f32        $v3, $v2
    mul.f32        $sc, $v3, $con1
    mul.f32        $vrat, $sc, 0.5
    # -- per-thread path update (true vector work) --
    mul.f32        $shock, $vrat, $zv
    mad.f32        $L, $shock, $L, $L
    mad.f32        $L, $sc, 0.01, $L
    add.u32        $j, $j, 1
    setp.lt.u32    $p0, $j, %param.n
@$p0 bra mat_loop
    add.u32        $oo, $zo, 0
    sub.u32        $oo, $oo, %param.z
    add.u32        $oo, $oo, %param.out
    st.global.f32  [$oo], $L
    exit
"""

_SCALE = {"tiny": (64, 2, 6), "small": (256, 4, 24), "medium": (256, 8, 40)}


def _oracle(lam: np.ndarray, z: np.ndarray, n: int, delta: float) -> np.ndarray:
    L = np.full(z.shape, 0.05, dtype=np.float64)
    for j in range(n):
        con1 = lam[j] * delta
        v2 = con1 * lam[j] * delta + 1.0
        sc = (1.0 / v2) * con1
        vrat = sc * 0.5
        shock = vrat * z
        L = shock * L + L
        L = L + sc * 0.01
    return L


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    threads_per_block, blocks, n = _SCALE[scale]
    program = assemble(KERNEL, name="lib")
    launch = LaunchConfig(grid_dim=Dim3(blocks), block_dim=Dim3(threads_per_block))
    rng = np.random.default_rng(7)
    total = threads_per_block * blocks
    lam = (0.1 + 0.05 * rng.random(n)).astype(np.float64)
    z = rng.standard_normal(total).astype(np.float64)
    delta = 0.25
    expected = _oracle(lam, z, n, delta)

    def make_memory():
        mem = GlobalMemory(1 << 16)
        plam = mem.alloc_array(lam)
        pz = mem.alloc_array(z)
        pout = mem.alloc(total)
        return mem, {"lam": plam, "z": pz, "out": pout, "n": n, "delta": delta}

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="LIB",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"LIBOR Monte Carlo, {total} paths x {n} maturities",
    )
