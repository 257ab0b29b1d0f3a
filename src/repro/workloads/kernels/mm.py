"""MM — tiled matrix multiply (CUDA SDK matrixMul), TB (32,32).

The paper's showcase kernel (Figure 6): the inner product loop reads the
B tile from shared memory at a ``tid.x``-derived offset, so with a 32x32
TB every warp loads the *same* tile column values — unstructured
TB-redundant shared-memory loads — while the A-tile read is warp-uniform
and the ``mad`` is true vector work.  "MM has a significant number of
unstructured-redundant accesses to shared memory" (Section 6.1).
"""

from __future__ import annotations

import numpy as np

from repro.isa import assemble
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload, close, require_scale

KERNEL = """
.kernel mm
.param a
.param b
.param c
.param width
.param tiles
.shared 2048
    mov.u32        $tx, %tid.x
    mov.u32        $ty, %tid.y
    mul.u32        $row, %ctaid.y, %ntid.y
    add.u32        $row, $row, $ty
    mul.u32        $col, %ctaid.x, %ntid.x
    add.u32        $col, $col, $tx
    mov.f32        $acc, 0.0
    # shared layout: As at 0, Bs at ntid.x*ntid.y words
    mul.u32        $bsbase, %ntid.x, %ntid.y
    shl.u32        $bsbase, $bsbase, 2
    # As[ty][tx] byte offset
    mul.u32        $sa, $ty, %ntid.x
    add.u32        $sa, $sa, $tx
    shl.u32        $sa, $sa, 2
    add.u32        $sb, $sa, $bsbase
    mov.u32        $t, 0
tile_loop:
    # load A[row][t*TILE + tx] into As[ty][tx]
    mul.u32        $k0, $t, %ntid.x
    add.u32        $ai, $k0, $tx
    mul.u32        $tmp, $row, %param.width
    add.u32        $tmp, $tmp, $ai
    shl.u32        $tmp, $tmp, 2
    add.u32        $tmp, $tmp, %param.a
    ld.global.f32  $va, [$tmp]
    st.shared.f32  [$sa], $va
    # load B[t*TILE + ty][col] into Bs[ty][tx]
    add.u32        $bi, $k0, $ty
    mul.u32        $tmp, $bi, %param.width
    add.u32        $tmp, $tmp, $col
    shl.u32        $tmp, $tmp, 2
    add.u32        $tmp, $tmp, %param.b
    ld.global.f32  $vb, [$tmp]
    st.shared.f32  [$sb], $vb
    bar.sync
    # inner product over the tile, unrolled 4x like the paper's
    # register-allocated MM kernel (Figure 6): each tap is a
    # conditionally redundant Bs read + offset bump feeding one true
    # vector mad.
    mul.u32        $ofsa, $ty, %ntid.x
    shl.u32        $ofsa, $ofsa, 2
    shl.u32        $ofsb, $tx, 2
    add.u32        $ofsb, $ofsb, $bsbase
    mul.u32        $stride, %ntid.x, 4
    mov.u32        $k, 0
inner:
    ld.shared.f32  $b0, [$ofsb]
    add.u32        $ofsb, $ofsb, $stride
    ld.shared.f32  $a0, [$ofsa]
    mad.f32        $acc, $a0, $b0, $acc
    ld.shared.f32  $b1, [$ofsb]
    add.u32        $ofsb, $ofsb, $stride
    ld.shared.f32  $a1, [$ofsa + 4]
    mad.f32        $acc, $a1, $b1, $acc
    ld.shared.f32  $b2, [$ofsb]
    add.u32        $ofsb, $ofsb, $stride
    ld.shared.f32  $a2, [$ofsa + 8]
    mad.f32        $acc, $a2, $b2, $acc
    ld.shared.f32  $b3, [$ofsb]
    add.u32        $ofsb, $ofsb, $stride
    ld.shared.f32  $a3, [$ofsa + 12]
    mad.f32        $acc, $a3, $b3, $acc
    add.u32        $ofsa, $ofsa, 16
    add.u32        $k, $k, 4
    setp.lt.u32    $p0, $k, %ntid.x
@$p0 bra inner
    bar.sync
    add.u32        $t, $t, 1
    setp.lt.u32    $p1, $t, %param.tiles
@$p1 bra tile_loop
    mul.u32        $tmp, $row, %param.width
    add.u32        $tmp, $tmp, $col
    shl.u32        $tmp, $tmp, 2
    add.u32        $tmp, $tmp, %param.c
    st.global.f32  [$tmp], $acc
    exit
"""

#: (tile, matrix width) per scale.  ``tiny`` shrinks the TB to keep unit
#: tests fast; ``small``/``medium`` use the paper's 32x32 TB.
_SCALE = {"tiny": (8, 16), "small": (32, 64), "medium": (32, 128)}


def build(scale: str = "small") -> Workload:
    require_scale(scale)
    tile, width = _SCALE[scale]
    program = assemble(KERNEL, name="mm")
    launch = LaunchConfig(
        grid_dim=Dim3(width // tile, width // tile),
        block_dim=Dim3(tile, tile),
    )
    rng = np.random.default_rng(42)
    a = rng.standard_normal((width, width)).astype(np.float64)
    b = rng.standard_normal((width, width)).astype(np.float64)
    expected = a @ b

    def make_memory():
        mem = GlobalMemory(max(1 << 16, 4 * width * width))
        pa = mem.alloc_array(a)
        pb = mem.alloc_array(b)
        pc = mem.alloc(width * width)
        return mem, {"a": pa, "b": pb, "c": pc, "width": width, "tiles": width // tile}

    def check(mem, params):
        return close(mem, params["c"], expected, rtol=1e-9)

    return Workload(
        abbr="MM",
        program=program,
        launch=launch,
        make_memory=make_memory,
        check=check,
        scale=scale,
        description=f"tiled {width}x{width} matrix multiply, tile {tile}",
    )
