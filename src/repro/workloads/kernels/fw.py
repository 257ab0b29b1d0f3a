"""FW — fastWalshTransform (CUDA SDK), TB (256,1).

Each TB transforms a 2*blockDim.x-point segment in shared memory with a
log2(N)-step butterfly, barriers between steps.  The butterfly index
arithmetic is pure ``tid.x`` computation — affine but *not* redundant in
a 1D TB (Figure 3a) — so only the loop bookkeeping is skippable.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel fw
.param data
.param log2n
.param half
.shared 1024
    mov.u32        $i, %tid.x
    # global segment base (in elements) = ctaid.x * 2 * half
    mul.u32        $gbase, %ctaid.x, %param.half
    shl.u32        $gbase, $gbase, 1
    # load two elements per thread
    add.u32        $g0, $gbase, $i
    shl.u32        $g0, $g0, 2
    add.u32        $g0, $g0, %param.data
    ld.global.f32  $v0, [$g0]
    shl.u32        $s0, $i, 2
    st.shared.f32  [$s0], $v0
    add.u32        $g1, $gbase, $i
    add.u32        $g1, $g1, %param.half
    shl.u32        $g1, $g1, 2
    add.u32        $g1, $g1, %param.data
    ld.global.f32  $v1, [$g1]
    shl.u32        $hbytes, %param.half, 2
    add.u32        $s1, $s0, $hbytes
    st.shared.f32  [$s1], $v1
    bar.sync
    mov.u32        $step, 0
butterfly:
    # stride = 1 << step ; lo = i & (stride-1) ; idx = (i - lo)*2 + lo
    mov.u32        $one, 1
    shl.u32        $stride, $one, $step
    sub.u32        $mask, $stride, 1
    and.u32        $lo, $i, $mask
    sub.u32        $hi, $i, $lo
    shl.u32        $hi, $hi, 1
    add.u32        $idx, $hi, $lo
    shl.u32        $ia, $idx, 2
    add.u32        $ib, $idx, $stride
    shl.u32        $ib, $ib, 2
    ld.shared.f32  $a, [$ia]
    ld.shared.f32  $b, [$ib]
    add.f32        $sum, $a, $b
    sub.f32        $dif, $a, $b
    bar.sync
    st.shared.f32  [$ia], $sum
    st.shared.f32  [$ib], $dif
    bar.sync
    add.u32        $step, $step, 1
    setp.lt.u32    $p0, $step, %param.log2n
@$p0 bra butterfly
    ld.shared.f32  $o0, [$s0]
    st.global.f32  [$g0], $o0
    ld.shared.f32  $o1, [$s1]
    st.global.f32  [$g1], $o1
    exit
"""


def _fwht(x: np.ndarray) -> np.ndarray:
    """Natural-order fast Walsh-Hadamard transform (oracle)."""
    x = x.copy()
    n = x.size
    step = 1
    while step < n:
        for start in range(0, n, 2 * step):
            a = x[start : start + step].copy()
            b = x[start + step : start + 2 * step].copy()
            x[start : start + step] = a + b
            x[start + step : start + 2 * step] = a - b
        step *= 2
    return x


_SCALE = {"tiny": (64, 2), "small": (256, 4), "medium": (256, 8)}


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    threads, blocks = _SCALE[scale]
    n = 2 * threads  # points per TB
    log2n = int(np.log2(n))
    program = assemble(KERNEL, name="fw")
    launch = LaunchConfig(grid_dim=Dim3(blocks), block_dim=Dim3(threads))
    rng = np.random.default_rng(11)
    data = rng.standard_normal(n * blocks).astype(np.float64)
    expected = np.concatenate([_fwht(data[b * n : (b + 1) * n]) for b in range(blocks)])

    def make_memory():
        mem = GlobalMemory(1 << 14)
        pdata = mem.alloc_array(data)
        return mem, {"data": pdata, "log2n": log2n, "half": threads}

    def check(mem, params):
        return close(mem, params["data"], expected, rtol=1e-9)

    return Workload(
        abbr="FW",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"Walsh-Hadamard transform, {blocks} x {n}-point segments",
    )
