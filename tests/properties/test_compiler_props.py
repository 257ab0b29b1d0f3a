"""Property-based tests on the compiler pass and promotion.

The key safety property: the static analysis is *non-speculative* —
every instruction it marks definitely redundant (after promotion) truly
produces identical values in every warp of a TB when warps share a
control-flow history.  We check it by executing random straight-line
programs and comparing per-warp outputs for every promoted-DR PC.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Dim3,
    GlobalMemory,
    LaunchConfig,
    Marking,
    Tracer,
    analyze_program,
    assemble,
    promote_markings,
    run_functional,
)
from repro.simt.tracer import RedundancyClass

REGS = ["$r0", "$r1", "$r2", "$r3"]
SOURCES = REGS + ["%tid.x", "%tid.y", "%ctaid.x", "%ntid.x", "7", "3"]

ops = st.sampled_from(["add.u32", "sub.s32", "mul.u32", "min.s32", "max.s32", "xor.u32"])
lines = st.builds(
    lambda op, d, a, b: f"{op} {d}, {a}, {b}",
    ops,
    st.sampled_from(REGS),
    st.sampled_from(SOURCES),
    st.sampled_from(SOURCES),
)


@given(st.lists(lines, min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_promoted_dr_marks_are_sound(body):
    src = "\n".join(body) + "\nexit"
    prog = assemble(src)
    analysis = analyze_program(prog)
    launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(8, 4), warp_size=8)
    promoted = promote_markings(analysis.instruction_markings, launch)

    tracer = Tracer()
    run_functional(prog, launch, GlobalMemory(256), params={}, tracer=tracer)
    instances = tracer.trace.instances

    for inst in prog.instructions:
        if promoted.get(inst.pc) is not Marking.REDUNDANT:
            continue
        if inst.dest_register() is None:
            continue
        cls = instances[(0, inst.pc, 0)].redundancy
        assert cls is not RedundancyClass.NON_REDUNDANT, (
            f"DR-marked {inst} produced non-redundant values"
        )


@given(st.lists(lines, min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_marking_is_monotone_under_demotion(body):
    """1D promotion never yields a stronger marking than 2D promotion."""
    src = "\n".join(body) + "\nexit"
    prog = assemble(src)
    analysis = analyze_program(prog)
    two_d = promote_markings(
        analysis.instruction_markings,
        LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(16, 4)),
    )
    one_d = promote_markings(
        analysis.instruction_markings,
        LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(64)),
    )
    for pc in two_d:
        assert one_d[pc] <= two_d[pc]


@given(st.lists(lines, min_size=1, max_size=15))
@settings(max_examples=30, deadline=None)
def test_fixpoint_is_stable(body):
    """Re-running the analysis reproduces identical markings."""
    src = "\n".join(body) + "\nexit"
    prog = assemble(src)
    a = analyze_program(prog).instruction_markings
    b = analyze_program(prog).instruction_markings
    assert a == b
