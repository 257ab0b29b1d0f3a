"""CFG construction, reachability, traversal order and dominators."""

from repro import assemble
from repro.isa.program import immediate_dominators
from repro.staticlib import EXIT_NODE, ControlFlowGraph


def dominator_tree(cfg):
    return immediate_dominators(0, cfg.succ)


def postdominator_tree(cfg):
    return immediate_dominators(EXIT_NODE, cfg.pred)


def dominates(idom, a, b):
    """True when ``a`` is on ``b``'s chain of immediate dominators."""
    while b != a and idom[b] != b:
        b = idom[b]
    return b == a


class TestStraightLine:
    def test_single_block(self, figure3_program):
        cfg = ControlFlowGraph.from_program(figure3_program)
        assert len(cfg.blocks) == 1
        assert cfg.succ[0] == (EXIT_NODE,)
        assert cfg.pred[EXIT_NODE] == (0,)
        assert cfg.reachable == frozenset({0})
        assert cfg.rpo == (0,)
        assert not cfg.fallthrough_exit
        assert not cfg.broken_branch_pcs

    def test_every_pc_reachable(self, figure3_program):
        cfg = ControlFlowGraph.from_program(figure3_program)
        for inst in figure3_program.instructions:
            assert cfg.is_reachable_pc(inst.pc)


class TestLoop:
    def test_loop_edges(self, loop_program):
        cfg = ControlFlowGraph.from_program(loop_program)
        # entry -> body; body -> {body, tail}; tail -> exit
        assert len(cfg.blocks) == 3
        assert cfg.succ[0] == (1,)
        assert set(cfg.succ[1]) == {1, 2}
        assert cfg.succ[2] == (EXIT_NODE,)
        assert set(cfg.pred[1]) == {0, 1}

    def test_loop_rpo_and_dominators(self, loop_program):
        cfg = ControlFlowGraph.from_program(loop_program)
        assert cfg.rpo == (0, 1, 2)
        idom = dominator_tree(cfg)
        assert idom[0] == 0
        assert idom[1] == 0
        assert idom[2] == 1
        assert dominates(idom, 0, 2)
        assert not dominates(idom, 2, 1)

    def test_loop_postdominators(self, loop_program):
        cfg = ControlFlowGraph.from_program(loop_program)
        ipdom = postdominator_tree(cfg)
        assert ipdom[2] == EXIT_NODE
        assert ipdom[1] == 2
        assert ipdom[0] == 1
        assert dominates(ipdom, 2, 0)


class TestDiamond:
    def test_diverge_edges(self, diverge_program):
        cfg = ControlFlowGraph.from_program(diverge_program)
        # B0 -> {even (fallthrough), odd (taken)}; both -> join -> exit
        assert len(cfg.blocks) == 4
        assert set(cfg.succ[0]) == {1, 2}
        assert cfg.succ[1] == (3,)
        assert cfg.succ[2] == (3,)
        assert cfg.succ[3] == (EXIT_NODE,)
        assert set(cfg.pred[3]) == {1, 2}
        # The walk visits successors in edge order (taken arm first),
        # which leaves the fall-through arm first in reverse postorder.
        assert cfg.succ[0] == (2, 1)
        assert cfg.rpo == (0, 1, 2, 3)

    def test_diamond_dominance(self, diverge_program):
        cfg = ControlFlowGraph.from_program(diverge_program)
        idom = dominator_tree(cfg)
        ipdom = postdominator_tree(cfg)
        # The join block is dominated by the fork, not by either arm...
        assert idom[3] == 0
        # ...and post-dominates the fork and both arms.
        assert ipdom[0] == 3
        assert ipdom[1] == 3
        assert ipdom[2] == 3

    def test_region_between_is_the_divergent_region(self, diverge_program):
        cfg = ControlFlowGraph.from_program(diverge_program)
        prog = diverge_program
        branch = next(i for i in prog.instructions if i.is_branch)
        rpc = prog.reconvergence_pc(branch.pc)
        region = cfg.region_between(branch.pc, rpc)
        assert region == frozenset({1, 2})  # both arms, not the join

    def test_region_without_stop_extends_to_exit(self, diverge_program):
        cfg = ControlFlowGraph.from_program(diverge_program)
        branch = next(i for i in diverge_program.instructions if i.is_branch)
        assert cfg.region_between(branch.pc, None) == frozenset({1, 2, 3})


class TestMalformedPrograms:
    def test_assembler_supplies_trailing_exit(self):
        # The assembler appends an implicit `exit`, so a source with no
        # trailing exit still cannot fall off the end.
        prog = assemble("mov.u32 $a, 1\nadd.u32 $b, $a, 1")
        cfg = ControlFlowGraph.from_program(prog)
        assert prog.instructions[-1].is_exit
        assert not cfg.fallthrough_exit

    def test_fallthrough_off_end_mutant(self):
        # Corrupt the final exit into a predicated one: lanes whose
        # guard is false fall off the end of the instruction stream.
        prog = assemble("""
            setp.eq.u32 $p0, %ctaid.x, 0
            mov.u32 $a, 1
            exit
        """)
        last = prog.instructions[-1]
        last.guard = prog.instructions[0].dest_predicate()
        cfg = ControlFlowGraph.from_program(prog)
        final_block = prog.block_of(last.pc).index
        assert final_block in cfg.fallthrough_exit

    def test_predicated_exit_has_both_edges(self):
        prog = assemble("""
            setp.eq.u32 $p0, %ctaid.x, 0
        @$p0 exit
            mov.u32 $a, 1
            exit
        """)
        cfg = ControlFlowGraph.from_program(prog)
        exit_block = prog.block_of(0x08).index
        assert EXIT_NODE in cfg.succ[exit_block]
        assert prog.block_of(0x10).index in cfg.succ[exit_block]

    def test_broken_branch_target_tolerated(self):
        prog = assemble("""
            mov.u32 $a, 1
            bra done
        done:
            exit
        """)
        branch = next(i for i in prog.instructions if i.is_branch)
        branch.target_pc = 0x1234  # corrupt: not an instruction PC
        cfg = ControlFlowGraph.from_program(prog)
        assert cfg.broken_branch_pcs == (branch.pc,)

    def test_unreachable_block_excluded_from_rpo(self):
        prog = assemble("""
            bra done
            mov.u32 $dead, 1
        done:
            exit
        """)
        cfg = ControlFlowGraph.from_program(prog)
        dead = prog.block_of(0x08).index
        assert dead not in cfg.reachable
        assert dead not in cfg.rpo
        assert not cfg.is_reachable_pc(0x08)
        # Unreachable blocks are absent from the dominator tree entirely.
        assert dead not in dominator_tree(cfg)
