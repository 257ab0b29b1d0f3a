"""FWS — Floyd-Warshall (Pannotia), TB (16,16).

Batched all-pairs shortest paths: each TB relaxes one 16x16 distance
matrix in shared memory, one barrier-separated ``k`` phase at a time.
The ``d[k][j]`` operand is indexed by ``tid.x`` — identical in every
warp of the TB (unstructured redundancy) — while ``d[i][k]`` varies
with the row and stays vector.  The paper notes FWS is memory-dominated:
"DARSIE improves the performance of FWS by 13%, despite the fact that
21% of its instructions are skipped" (Section 6.1).
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, exact, require_scale

KERNEL = """
.kernel fws
.param d
.param n
.shared 512
    mov.u32        $tx, %tid.x
    mov.u32        $ty, %tid.y
    mul.u32        $cell, $ty, %param.n
    add.u32        $cell, $cell, $tx
    # global base of this TB's matrix
    mul.u32        $msize, %param.n, %param.n
    mul.u32        $gbase, %ctaid.x, $msize
    add.u32        $gidx, $gbase, $cell
    shl.u32        $gaddr, $gidx, 2
    add.u32        $gaddr, $gaddr, %param.d
    ld.global.s32  $v, [$gaddr]
    shl.u32        $sij, $cell, 2
    st.shared.s32  [$sij], $v
    bar.sync
    mov.u32        $k, 0
k_loop:
    # d[i][k] — row operand (vector)
    mul.u32        $aik, $ty, %param.n
    add.u32        $aik, $aik, $k
    shl.u32        $aik, $aik, 2
    ld.shared.s32  $dik, [$aik]
    # d[k][j] — column operand (TB-redundant via tid.x)
    mul.u32        $akj, $k, %param.n
    add.u32        $akj, $akj, $tx
    shl.u32        $akj, $akj, 2
    ld.shared.s32  $dkj, [$akj]
    add.u32        $alt, $dik, $dkj
    ld.shared.s32  $old, [$sij]
    min.s32        $nv, $old, $alt
    bar.sync
    st.shared.s32  [$sij], $nv
    bar.sync
    add.u32        $k, $k, 1
    setp.lt.u32    $p0, $k, %param.n
@$p0 bra k_loop
    ld.shared.s32  $res, [$sij]
    st.global.s32  [$gaddr], $res
    exit
"""

_SCALE = {"tiny": (8, 1), "small": (16, 4), "medium": (16, 8)}


def _oracle(mats: np.ndarray) -> np.ndarray:
    out = mats.copy()
    n = out.shape[1]
    for b in range(out.shape[0]):
        d = out[b]
        for k in range(n):
            d[:] = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return out


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    n, batches = _SCALE[scale]
    program = assemble(KERNEL, name="fws")
    launch = LaunchConfig(grid_dim=Dim3(batches), block_dim=Dim3(n, n))
    rng = np.random.default_rng(19)
    mats = rng.integers(1, 100, size=(batches, n, n)).astype(np.int64)
    idx = np.arange(n)
    mats[:, idx, idx] = 0
    expected = _oracle(mats)

    def make_memory():
        mem = GlobalMemory(1 << 14)
        pd = mem.alloc_array(mats)
        return mem, {"d": pd, "n": n}

    def check(mem, params):
        return exact(mem, params["d"], expected)

    return Workload(
        abbr="FWS",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"batched APSP, {batches} x {n}x{n} matrices",
    )
