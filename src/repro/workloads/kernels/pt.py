"""PT — pathfinder (Rodinia), TB (1024,1).

Dynamic-programming sweep over a cost grid: each thread owns one column
and iterates rows, taking the min of its three lower neighbours from a
shared-memory row buffer (barriers between rows).  Like Rodinia's
ghost-zone version, neighbour access is clamped at TB boundaries; the
numpy oracle mirrors that exactly.
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, exact, require_scale

KERNEL = """
.kernel pt
.param wall
.param src
.param dst
.param rows
.param cols
.shared 1024
    mov.u32        $tx, %tid.x
    mul.u32        $col, %ctaid.x, %ntid.x
    add.u32        $col, $col, $tx
    # clamped neighbour lanes within the TB
    sub.u32        $lm, $tx, 1
    max.s32        $lm, $lm, 0
    add.u32        $rm, $tx, 1
    sub.u32        $lim, %ntid.x, 1
    min.s32        $rm, $rm, $lim
    shl.u32        $sl, $lm, 2
    shl.u32        $sc, $tx, 2
    shl.u32        $sr, $rm, 2
    # load source row
    shl.u32        $g, $col, 2
    add.u32        $g, $g, %param.src
    ld.global.s32  $cur, [$g]
    st.shared.s32  [$sc], $cur
    bar.sync
    mov.u32        $r, 0
row_loop:
    ld.shared.s32  $a, [$sl]
    ld.shared.s32  $b, [$sc]
    ld.shared.s32  $c, [$sr]
    min.s32        $m, $a, $b
    min.s32        $m, $m, $c
    mul.u32        $wo, $r, %param.cols
    add.u32        $wo, $wo, $col
    shl.u32        $wo, $wo, 2
    add.u32        $wo, $wo, %param.wall
    ld.global.s32  $w, [$wo]
    add.u32        $v, $w, $m
    bar.sync
    st.shared.s32  [$sc], $v
    bar.sync
    add.u32        $r, $r, 1
    setp.lt.u32    $p0, $r, %param.rows
@$p0 bra row_loop
    ld.shared.s32  $res, [$sc]
    shl.u32        $go, $col, 2
    add.u32        $go, $go, %param.dst
    st.global.s32  [$go], $res
    exit
"""

_SCALE = {"tiny": (64, 2, 3), "small": (1024, 2, 4), "medium": (1024, 4, 8)}


def _oracle(wall: np.ndarray, src: np.ndarray, block: int) -> np.ndarray:
    rows, cols = wall.shape
    cur = src.copy()
    for r in range(rows):
        nxt = np.empty_like(cur)
        for b in range(0, cols, block):
            seg = cur[b : b + block]
            left = np.concatenate(([seg[0]], seg[:-1]))
            right = np.concatenate((seg[1:], [seg[-1]]))
            nxt[b : b + block] = wall[r, b : b + block] + np.minimum(
                np.minimum(left, seg), right
            )
        cur = nxt
    return cur


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    threads, blocks, rows = _SCALE[scale]
    cols = threads * blocks
    program = assemble(KERNEL, name="pt")
    launch = LaunchConfig(grid_dim=Dim3(blocks), block_dim=Dim3(threads))
    rng = np.random.default_rng(5)
    wall = rng.integers(0, 10, size=(rows, cols)).astype(np.int64)
    src = rng.integers(0, 10, size=cols).astype(np.int64)
    expected = _oracle(wall, src, threads)

    def make_memory():
        mem = GlobalMemory(1 << 16)
        pwall = mem.alloc_array(wall)
        psrc = mem.alloc_array(src)
        pdst = mem.alloc(cols)
        return mem, {"wall": pwall, "src": psrc, "dst": pdst, "rows": rows, "cols": cols}

    def check(mem, params):
        return exact(mem, params["dst"], expected)

    return Workload(
        abbr="PT",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"DP sweep, {rows} rows x {cols} cols",
    )
