"""BIN — binomialOptions (CUDA SDK), TB (256,1).

One option per TB: the option value lattice lives in shared memory and
is contracted by backward induction, one level per barrier-separated
step.  The pricing coefficients (pu, pd, discount) are kernel parameters
— uniform redundancy — while the lattice arithmetic is per-thread vector
work predicated on the shrinking active range.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel bin
.param s0
.param k
.param l2u
.param pu
.param pd
.param df
.param n
.param out
.shared 1024
    mov.u32        $i, %tid.x
    shl.u32        $addr, $i, 2
    # payoff at leaf i: max(s0 * 2^(i*l2u) - k, 0)
    cvt.f32        $fi, $i
    mul.f32        $e, $fi, %param.l2u
    ex2.f32        $s, $e
    mul.f32        $s, $s, %param.s0
    sub.f32        $v, $s, %param.k
    max.f32        $v, $v, 0.0
    st.shared.f32  [$addr], $v
    bar.sync
    mov.u32        $step, 0
step_loop:
    sub.u32        $lim, %param.n, $step
    setp.lt.u32    $p0, $i, $lim
@$p0 ld.shared.f32 $a, [$addr + 4]
@$p0 ld.shared.f32 $b, [$addr]
@$p0 mul.f32       $t1, $a, %param.pu
@$p0 mad.f32       $t1, $b, %param.pd, $t1
@$p0 mul.f32       $t1, $t1, %param.df
    bar.sync
@$p0 st.shared.f32 [$addr], $t1
    bar.sync
    add.u32        $step, $step, 1
    setp.lt.u32    $p1, $step, %param.n
@$p1 bra step_loop
    setp.eq.u32    $p2, $i, 0
@$p2 mul.u32       $o, %ctaid.x, 4
@$p2 add.u32       $o, $o, %param.out
@$p2 ld.shared.f32 $r, [$addr]
@$p2 st.global.f32 [$o], $r
    exit
"""

_SCALE = {"tiny": (64, 2, 8), "small": (256, 4, 24), "medium": (256, 8, 64)}


def _oracle(s0: float, k: float, l2u: float, pu: float, pd: float, df: float, n: int) -> float:
    i = np.arange(n + 1, dtype=np.float64)
    v = np.maximum(s0 * np.exp2(i * l2u) - k, 0.0)
    for _step in range(n):
        v = (pu * v[1:] + pd * v[:-1]) * df
    return float(v[0])


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    threads, options, steps = _SCALE[scale]
    program = assemble(KERNEL, name="bin")
    launch = LaunchConfig(grid_dim=Dim3(options), block_dim=Dim3(threads))
    s0, strike, l2u = 100.0, 100.0, 0.02
    pu, pd, df = 0.55, 0.45, 0.995
    expected = np.full(
        options, _oracle(s0, strike, l2u, pu, pd, df, steps), dtype=np.float64
    )

    def make_memory():
        mem = GlobalMemory(1 << 14)
        pout = mem.alloc(options)
        return mem, {
            "s0": s0, "k": strike, "l2u": l2u, "pu": pu, "pd": pd,
            "df": df, "n": steps, "out": pout,
        }

    def check(mem, params):
        return close(mem, params["out"], expected, rtol=1e-9)

    return Workload(
        abbr="BIN",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"binomial option pricing, {options} options x {steps} steps",
    )
