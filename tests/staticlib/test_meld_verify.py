"""The differential meld-verification harness: it passes on sound melds
and actually catches unsound ones."""

from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro.staticlib import verify_all, verify_workload
from repro.staticlib.verify import _diff_registers, _lint_regressions
from repro.workloads import DIVERGENT_ABBRS, build_workload


class TestVerifyPasses:
    def test_divergent_suite_melds_and_verifies(self):
        report = verify_all(scale="tiny", abbrs=DIVERGENT_ABBRS)
        assert report.ok
        assert len(report.melded) == len(DIVERGENT_ABBRS)
        for check in report.checks:
            assert check.melds_applied == 1
            assert check.melds_rejected == 0
            assert check.instructions_after < check.instructions_before
            assert check.dynamic_after < check.dynamic_before
            assert "meld(s)" in check.summary()

    def test_table1_kernel_is_a_noop(self):
        check = verify_workload(build_workload("BIN", "tiny"))
        assert check.ok and not check.changed
        assert check.instructions_after == check.instructions_before
        assert "no meldable regions" in check.summary()

    def test_progress_callback_and_dict_shape(self):
        seen = []
        report = verify_all(scale="tiny", abbrs=("DIVEO",),
                            progress=seen.append)
        assert [c.abbr for c in seen] == ["DIVEO"]
        payload = report.to_dict()
        assert payload["ok"] is True
        (wl,) = payload["workloads"]
        assert wl["abbr"] == "DIVEO" and wl["problems"] == []


class TestVerifyCatchesTampering:
    @pytest.mark.filterwarnings("ignore:.*never-written.*")
    def test_flipped_guard_polarity_caught(self):
        """A transform that melds correctly but inverts one guard (so the
        wrong lanes execute the op) must produce problems, not silently
        pass."""
        from repro.isa.program import Program
        from repro.staticlib.passes import darm_ideal_pass

        workload = build_workload("DIVEO", "tiny")

        def tampered(program):
            melded = darm_ideal_pass(program)
            insts = list(melded.instructions)
            for idx, inst in enumerate(insts):
                if inst.guard is not None and inst.srcs:
                    # flip the guard polarity of one surviving arm op:
                    # the wrong lanes execute it
                    insts[idx] = dc_replace(
                        inst, guard_negated=not inst.guard_negated, text=""
                    )
                    break
            return Program(name=melded.name, instructions=insts,
                           labels=dict(melded.labels), params=melded.params,
                           shared_words=melded.shared_words)

        check = verify_workload(workload, transform=tampered)
        assert not check.ok
        assert any("memory differs" in p or "oracle" in p
                   for p in check.problems)

    def test_identity_transform_is_clean(self):
        check = verify_workload(build_workload("DIVEO", "tiny"),
                                transform=lambda p: p)
        assert check.ok and not check.changed

    def test_identical_nan_results_are_clean(self):
        """inf - inf leaves NaN in memory and in $y on both sides; a
        bit-exact comparison agrees where ``==`` never would."""
        from repro import Dim3, GlobalMemory, LaunchConfig, assemble
        from repro.workloads import Workload

        program = assemble("""
.param x
.param out
    shl.u32        $xo, %tid.x, 2
    add.u32        $xo, $xo, %param.x
    ld.global.f32  $xv, [$xo]
    mul.f32        $w, $xv, $xv
    sub.f32        $y, $w, $w
    shl.u32        $oo, %tid.x, 2
    add.u32        $oo, $oo, %param.out
    st.global.f32  [$oo], $y
    exit
""", name="nan")

        def make_memory():
            memory = GlobalMemory(1 << 12)
            x = memory.alloc_array(np.full(32, 1e308))
            return memory, {"x": x, "out": memory.alloc(32)}

        workload = Workload(
            abbr="NAN", program=program,
            launch=LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32)),
            make_memory=make_memory, check=lambda memory, params: True,
            scale="tiny",
        )
        with np.errstate(all="ignore"):
            check = verify_workload(workload, transform=lambda p: p)
        assert check.ok, check.problems


class TestDiffRegisters:
    KEY = (0, 0, "r", "acc")

    def test_missing_register_means_zeros(self):
        zeros = np.zeros(4, dtype=np.uint32)
        assert _diff_registers({self.KEY: zeros}, {}) == []
        assert _diff_registers({}, {self.KEY: zeros}) == []

    def test_mismatch_reported_with_location(self):
        a = {self.KEY: np.array([1, 2, 3, 4], dtype=np.uint32)}
        b = {self.KEY: np.array([1, 2, 3, 5], dtype=np.uint32)}
        problems = _diff_registers(a, b)
        assert len(problems) == 1
        assert "tb0/warp0" in problems[0] and "acc" in problems[0]

    def test_missing_nonzero_register_is_a_mismatch(self):
        a = {self.KEY: np.array([7, 0, 0, 0], dtype=np.uint32)}
        assert len(_diff_registers(a, {})) == 1


class TestLintRegressions:
    @pytest.mark.filterwarnings("ignore:.*never-written.*")
    def test_introduced_uninit_read_is_flagged(self):
        from repro import assemble

        clean = assemble(
            """
.param x
    ld.global.f32  $v, [%param.x]
    st.global.f32  [%param.x], $v
    exit
""",
            name="k",
        )
        dirty = assemble(
            """
.param x
    ld.global.f32  $v, [%param.x]
    add.f32        $v, $v, $ghost
    st.global.f32  [%param.x], $v
    exit
""",
            name="k",
        )
        problems = _lint_regressions(clean, dirty)
        assert any("uninitialized" in p for p in problems)
        assert _lint_regressions(clean, clean) == []
