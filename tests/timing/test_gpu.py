"""Unit tests for the GPU top level: dispatch, results, failure modes."""

import dataclasses

import numpy as np
import pytest

from repro import Dim3, GlobalMemory, LaunchConfig, assemble, simulate, small_config
from repro.timing import SimStats
from repro.timing.config import ConfigError
from repro.timing.gpu import GPU, SimulationResult

SRC = """
.param out
    mul.u32 $o, %ctaid.x, 4
    add.u32 $o, $o, %param.out
    setp.eq.u32 $p0, %tid.x, 0
@$p0 st.global.s32 [$o], 1
    exit
"""


class TestLaunchValidation:
    def test_warp_size_mismatch_rejected(self):
        prog = assemble(SRC)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(8), warp_size=8)
        with pytest.raises(ValueError, match="warp size"):
            GPU(prog, launch, GlobalMemory(256), params={"out": 0},
                config=small_config(1))

    def test_a_threadblock_no_sm_can_hold_is_rejected(self):
        """A threadblock of more warps than an SM holds would never be
        dispatched: the GPU refuses the launch, naming the field."""
        prog = assemble(SRC)
        launch = LaunchConfig(grid_dim=Dim3(2), block_dim=Dim3(96))
        message = "^gpu.max_warps_per_sm: 2 cannot hold one threadblock of 3 warps$"
        with pytest.raises(ConfigError, match=message):
            GPU(prog, launch, GlobalMemory(256), params={"out": 0},
                config=small_config(1, max_warps_per_sm=2))
        result = simulate(prog, launch, GlobalMemory(256), params={"out": 0},
                          config=small_config(1, max_warps_per_sm=3))
        assert result.cycles > 0

    def test_missing_params_rejected(self):
        prog = assemble(SRC)
        launch = LaunchConfig(grid_dim=Dim3(1), block_dim=Dim3(32))
        with pytest.raises(KeyError, match="missing kernel parameter"):
            GPU(prog, launch, GlobalMemory(256), params={}, config=small_config(1))


class TestResult:
    def _run(self, grid=4, sms=2):
        prog = assemble(SRC)
        launch = LaunchConfig(grid_dim=Dim3(grid), block_dim=Dim3(32))
        mem = GlobalMemory(1 << 10)
        p = {"out": mem.alloc(32)}
        res = simulate(prog, launch, mem, params=p, config=small_config(sms))
        return res, mem, p

    def test_all_tbs_complete(self):
        res, mem, p = self._run(grid=7)
        assert mem.read_array(p["out"], 7, dtype=np.int64).tolist() == [1] * 7

    def test_result_fields(self):
        res, _, _ = self._run()
        assert isinstance(res, SimulationResult)
        assert res.frontend_name == "BASE"
        assert res.ipc > 0
        assert len(res.per_sm_stats) == 2
        assert res.stats.cycles == res.cycles

    def test_speedup_over(self):
        a, _, _ = self._run(sms=1)
        b, _, _ = self._run(sms=2)
        assert b.speedup_over(a) >= 1.0  # two SMs never slower

    def test_stats_aggregate_across_sms(self):
        res, _, _ = self._run(grid=6, sms=2)
        total = sum(s.instructions_executed for s in res.per_sm_stats)
        assert res.stats.instructions_executed == total


class TestCLI:
    def test_main_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure8" in out and "area" in out

    def test_main_runs_static_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["area"]) == 0
        assert "5.31" in capsys.readouterr().out

    def test_main_rejects_unknown_app(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure8", "--apps", "NOPE"])


class TestSerialisation:
    def test_to_dict_roundtrips_through_json(self):
        import json

        res, _, _ = TestResult()._run()
        d = json.loads(res.to_json())
        assert d["frontend"] == "BASE"
        assert d["cycles"] == res.cycles
        assert list(d["stats"]) == [f.name for f in dataclasses.fields(SimStats)]
        assert d["stats"] == res.stats.to_dict()
