#!/usr/bin/env python
"""Figure 3, executable: how TB dimensionality creates redundancy.

Reproduces the paper's worked example — a three-instruction sequence
reading an integer array indexed by ``tid.x`` — under a 1D and a 2D
threadblock with warp size 4, and classifies every output register
vector exactly as Figure 3 does:

- 1D (8,1): ``tid.x`` is laid out sequentially across warps, the address
  chain is *TB-affine but not redundant*, and the loaded values are
  unrelated between warps;
- 2D (4,2): every warp holds the same ``tid.x`` vector, the address
  chain is *affine redundant*, and the loads return identical,
  input-dependent values — *unstructured redundancy*.

Run with::

    python examples/dimensionality_walkthrough.py
"""

import numpy as np

from repro import (
    Dim3,
    GlobalMemory,
    LaunchConfig,
    RedundancyClass,
    Tracer,
    assemble,
    run_functional,
)
from repro.simt.tracer import ValueSummary

# Figure 3's pseudo-assembly: MUL R1, tid.x, 4 / ADD R2, R1, #base /
# LD R3, MEM[R2], with the paper's memory contents.
KERNEL = """
.kernel figure3
.param base
.param out
    mul.u32        $r1, %tid.x, 4
    add.u32        $r2, $r1, %param.base
    ld.global.s32  $r3, [$r2]
    # store so the run has an observable effect
    mul.u32        $t, %tid.y, %ntid.x
    add.u32        $t, $t, %tid.x
    mul.u32        $w, %ctaid.x, %ntid.x
    add.u32        $t, $t, $w
    shl.u32        $t, $t, 2
    add.u32        $t, $t, %param.out
    st.global.s32  [$t], $r3
    exit
"""

#: Figure 3's memory image: addresses 10.. hold [7, 3, 0, 90, 55, 8, 22, 1].
#: (We place it at a word-aligned base; the values are what matter.)
MEMORY_VALUES = [7, 3, 0, 90, 55, 8, 22, 1]

WARP_SIZE = 4


class WarpTracer(Tracer):
    """A tracer that also keeps each warp's summary of what it wrote at
    each PC.  The trace itself keeps one entry per TB instance: its
    class and its first warp's summary, not one per warp."""

    def __init__(self):
        super().__init__()
        #: ``pc -> [(warp id, summary)]``, in execution order
        self.warp_summaries = {}

    def record_group(self, tb, warps, inst, values, exec_masks):
        super().record_group(tb, warps, inst, values, exec_masks)
        if values is not None:
            for warp, value in zip(warps, values):
                summary = ValueSummary.of(np.asarray(value)[warp.hw_mask])
                self.warp_summaries.setdefault(inst.pc, []).append((warp.warp_id, summary))


def run_case(title: str, block_dim: Dim3) -> None:
    program = assemble(KERNEL)
    mem = GlobalMemory(1 << 12)
    base = mem.alloc_array(np.array(MEMORY_VALUES, dtype=np.int64))
    out = mem.alloc(16)
    launch = LaunchConfig(grid_dim=Dim3(1), block_dim=block_dim, warp_size=WARP_SIZE)
    tracer = WarpTracer()
    run_functional(program, launch, mem, params={"base": base, "out": out}, tracer=tracer)

    print(f"\n=== {title}: TB {block_dim}, warp size {WARP_SIZE} ===")
    # Each TB instance, keyed (tb, pc, occurrence), holds its class; the
    # per-warp summaries come from WarpTracer.
    instances = tracer.trace.instances
    names = {0x00: "MUL R1, tid.x, 4", 0x08: "ADD R2, R1, #base", 0x10: "LD  R3, MEM[R2]"}
    for pc, name in names.items():
        instance = instances[(0, pc, 0)]
        pattern = ", ".join(
            f"w{warp}:{s.kind}(base={s.base:g},stride={s.stride:g})"
            if s.kind == "affine"
            else f"w{warp}:{s.kind}"
            for warp, s in tracer.warp_summaries[pc]
        )
        print(f"  {name:20s} -> {instance.redundancy.value:14s} [{pattern}]")


def main() -> None:
    print("Figure 3: the same code, two threadblock shapes")
    run_case("Figure 3(a): 1D threadblock", Dim3(8, 1))
    run_case("Figure 3(b): 2D threadblock", Dim3(4, 2))
    print(
        "\nIn the 2D case all three instructions are TB-redundant — the"
        "\nload's output has no discernible pattern (input-dependent"
        "\nvalues) yet is identical in every warp: unstructured redundancy,"
        "\nwhich only DARSIE can eliminate (Table 3)."
    )
    # Machine-check the Figure 3 claims.
    program = assemble(KERNEL)
    mem = GlobalMemory(1 << 12)
    base = mem.alloc_array(np.array(MEMORY_VALUES, dtype=np.int64))
    out = mem.alloc(16)
    tracer = Tracer()
    run_functional(
        program,
        LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(4, 2), warp_size=WARP_SIZE),
        mem, params={"base": base, "out": out}, tracer=tracer,
    )
    instances = tracer.trace.instances
    assert instances[(0, 0x00, 0)].redundancy is RedundancyClass.AFFINE
    assert instances[(0, 0x08, 0)].redundancy is RedundancyClass.AFFINE
    assert instances[(0, 0x10, 0)].redundancy is RedundancyClass.UNSTRUCTURED
    print("\nall Figure 3(b) classifications machine-checked: OK")


if __name__ == "__main__":
    main()
