"""CFG construction edge cases: self-loops, backward branches into block
interiors, single-instruction kernels — plus property-based checks over
randomly generated (linter-validated) programs, including every
reconvergence point against a brute-force post-dominator reference."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import assemble
from repro.fuzz.generate import kernel_specs
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.staticlib import EXIT_NODE, ControlFlowGraph, lint_program


class TestConcreteEdgeCases:
    def test_single_instruction_kernel(self):
        program = assemble("    exit\n", name="k")
        cfg = ControlFlowGraph.from_program(program)
        assert len(cfg.blocks) == 1
        assert cfg.succ[0] == (EXIT_NODE,)
        assert cfg.reachable == frozenset({0})
        assert cfg.rpo == (0,)

    def test_self_loop(self):
        src = """
    mov.u32        $i, 0
spin:
    add.u32        $i, $i, 1
    setp.lt.u32    $p0, $i, 10
@$p0 bra spin
    exit
"""
        program = assemble(src, name="k")
        cfg = ControlFlowGraph.from_program(program)
        spin = cfg.block_of_pc(program.labels["spin"]).index
        assert spin in cfg.succ[spin]
        assert spin in cfg.pred[spin]
        assert cfg.reachable == frozenset(b.index for b in program.blocks)

    def test_backward_branch_into_block_interior_splits_it(self):
        """A backward branch whose target is mid-straight-line code must
        force a block boundary exactly at the target."""
        src = """
    mov.u32        $i, 0
    add.u32        $a, $i, 1
mid:
    add.u32        $a, $a, 2
    add.u32        $a, $a, 3
    setp.lt.u32    $p0, $a, 100
@$p0 bra mid
    exit
"""
        program = assemble(src, name="k")
        cfg = ControlFlowGraph.from_program(program)
        target = program.labels["mid"]
        # the target is a block *leader*, not an interior pc
        assert any(b.start_pc == target for b in program.blocks)
        header = cfg.block_of_pc(target).index
        assert header != cfg.block_of_pc(0).index
        assert header in cfg.succ[header] or any(
            header in cfg.succ[b.index] for b in program.blocks
            if b.index != header
        )

    def test_unconditional_backward_branch_makes_tail_unreachable(self):
        src = """
top:
    add.u32        $a, $a, 1
    bra top
    mov.u32        $b, 7
    exit
"""
        program = assemble(src, name="k")
        cfg = ControlFlowGraph.from_program(program)
        tail = cfg.block_of_pc(program.labels["top"] + 2 * 8).index
        assert tail not in cfg.reachable
        assert not cfg.is_reachable_pc(program.instructions[-1].pc)


class TestReconvergenceEdgeRule:
    """Reconvergence uses the SIMT edge rule; ControlFlowGraph does not."""

    def test_predicated_exit_in_divergent_arm_reconverges_at_join(self):
        program = assemble("""
    setp.eq.u32    $p0, %tid.x, 0
    setp.eq.u32    $p1, %tid.x, 1
@$p0 bra then
@$p1 exit
    add.u32        $a, $a, 1
    bra join
then:
    add.u32        $a, $a, 2
join:
    add.u32        $a, $a, 3
    exit
""", name="k")
        assert program.reconvergence_pc(0x10) == program.labels["join"] == 0x38
        # The dataflow view gives the same block an edge to exit as well.
        arm = program.block_of(0x18).index
        assert EXIT_NODE in ControlFlowGraph.from_program(program).succ[arm]

    def test_spin_loop_never_reaches_exit(self):
        program = assemble("""
@$p0 bra spin
    exit
spin:
    bra spin
""", name="k")
        assert program.reconvergence_pc(0x00) == 0x08
        assert program.reconvergence_pc(0x10) is None


# -- property-based sweep ---------------------------------------------------

ARITH = ("add.u32        $a, $a, 1",
         "mul.u32        $a, $a, 3",
         "add.u32        $b, $a, 2")


@st.composite
def random_kernels(draw):
    """A small straight-line body with 0-2 guarded branches whose targets
    land on arbitrary instructions (backward, forward, or self)."""
    n = draw(st.integers(min_value=1, max_value=6))
    body = [draw(st.sampled_from(ARITH)) for _ in range(n)]
    n_branches = draw(st.integers(min_value=0, max_value=2))
    branch_at = draw(st.lists(st.integers(min_value=0, max_value=n),
                              min_size=n_branches, max_size=n_branches))
    targets = [draw(st.integers(min_value=0, max_value=n))
               for _ in range(n_branches)]
    lines = ["    mov.u32        $a, 0",
             "    setp.lt.u32    $p0, $a, 5"]
    # label every body slot so any target is addressable
    for idx, text in enumerate(body):
        lines.append(f"L{idx}:")
        lines.append(f"    {text}")
    lines.append(f"L{n}:")
    lines.append("    exit")
    for pos, tgt in sorted(zip(branch_at, targets), reverse=True):
        # insert after label L{pos} line; guarded so fallthrough survives
        insert_at = 2 + 2 * pos + 1
        lines.insert(insert_at, f"@$p0 bra L{tgt}")
    return "\n".join(lines) + "\n"


@given(random_kernels())
@settings(max_examples=60, deadline=None)
def test_cfg_invariants_hold_on_random_programs(src):
    program = assemble(src, name="rand")
    report = lint_program(program)
    # the linter is the validity filter: generated programs must never
    # trip the structural (malformed control flow) rules
    structural = [f for f in report.findings if "branch" in f.rule]
    assert structural == [], structural

    cfg = ControlFlowGraph.from_program(program)

    # entry is always reachable and leads the rpo
    assert 0 in cfg.reachable
    assert cfg.rpo[0] == 0
    # rpo enumerates exactly the reachable blocks, once each
    assert sorted(cfg.rpo) == sorted(cfg.reachable)
    assert len(set(cfg.rpo)) == len(cfg.rpo)

    # pred/succ duality over real blocks and the virtual exit
    for a in [b.index for b in program.blocks]:
        for s in cfg.succ[a]:
            assert a in cfg.pred[s]
    for b in [b.index for b in program.blocks] + [EXIT_NODE]:
        for p in cfg.pred[b]:
            assert b in cfg.succ[p]

    # every branch target is a block leader
    for inst in program.instructions:
        if inst.is_branch:
            assert any(b.start_pc == inst.target_pc for b in program.blocks)

    # pc reachability agrees with block reachability
    for block in program.blocks:
        for inst in block:
            assert cfg.is_reachable_pc(inst.pc) == (
                block.index in cfg.reachable
            )


# -- reconvergence against a brute-force reference ---------------------------


def simt_successors(program):
    """Block -> successors under the SIMT edge rule: an unguarded exit
    leaves, a branch goes to its target, and everything but an
    unguarded exit or branch falls through — so a predicated exit keeps
    only its fall-through edge."""
    succ = {}
    for block in program.blocks:
        term = block.terminator
        out = set()
        if term.is_exit and term.guard is None:
            out.add(EXIT_NODE)
        else:
            if term.is_branch:
                out.add(program.block_of(term.target_pc).index)
            if not (term.is_branch and term.guard is None):
                nxt = term.pc + INSTRUCTION_BYTES
                out.add(program.block_of(nxt).index if nxt < program.end_pc else EXIT_NODE)
        succ[block.index] = out
    return succ


def reaches_exit(succ, start, removed=None):
    seen, stack = set(), [start]
    while stack:
        node = stack.pop()
        if node == EXIT_NODE:
            return True
        if node != removed and node not in seen:
            seen.add(node)
            stack.extend(succ[node])
    return False


def reference_reconvergence(program, branch_pc):
    """The strict post-dominator that every other one post-dominates.

    Block x strictly post-dominates b when b can reach exit but cannot
    once x is removed; None when b has no such block.
    """
    succ = simt_successors(program)
    b = program.block_of(branch_pc).index
    if not reaches_exit(succ, b):
        return None
    strict = [x for x in succ if x != b and not reaches_exit(succ, b, removed=x)]
    for x in strict:
        if all(y == x or not reaches_exit(succ, x, removed=y) for y in strict):
            return program.blocks[x].start_pc
    return None


def assert_reconvergence_matches_reference(program):
    for pc in program.branch_pcs():
        assert program.reconvergence_pc(pc) == reference_reconvergence(program, pc), (
            f"branch {pc:#x}\n{program.listing()}"
        )


@given(random_kernels())
@settings(max_examples=200, deadline=None)
def test_reconvergence_matches_reference_on_random_programs(src):
    assert_reconvergence_matches_reference(assemble(src, name="rand"))


@given(kernel_specs())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_reconvergence_matches_reference_on_fuzz_kernels(spec):
    assert_reconvergence_matches_reference(spec.program())
