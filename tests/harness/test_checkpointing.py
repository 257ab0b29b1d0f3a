"""Sweep-layer checkpointing: kill → resume → bit-identical.

The timing-layer tests prove a checkpointed GPU resumes exactly; this
file proves the *harness* plumbing around it — retries resuming from
the newest valid checkpoint, the SweepStats counters, superseded-file
GC, stale-tmp reaping, and the deadlock-dump failure artifact.
"""

import glob
import json
import os
import time

from repro.config import ExecPolicy
from repro.harness import faults as faultlib
from repro.harness import parallel
from repro.harness.parallel import (
    RunSpec,
    cache_key,
    checkpoint_path,
    run_specs,
)

SPEC = RunSpec(abbr="LIB", config_name="DARSIE", scale="tiny")

CKPT_POLICY = ExecPolicy(
    max_retries=2,
    backoff_base_s=0.0,
    checkpoint_interval_cycles=64,
)


def find_ckpts(directory):
    return glob.glob(os.path.join(directory, "**", "*.ckpt"), recursive=True)


class TestKillResume:
    def test_sim_kill_resumes_bit_identical(self, tmp_path):
        """A worker killed right after its first checkpoint write is
        retried, resumes from that checkpoint, and lands the same bits
        as an undisturbed run."""
        (clean,), _ = run_specs([SPEC], jobs=1, use_cache=False)
        assert clean.ok and clean.checkpoints_written == 0

        plan = faultlib.FaultPlan(rules=(
            faultlib.FaultRule(faultlib.SIM_KILL, SPEC.label, attempts=(1,)),
        ))
        with plan.active():
            (out,), stats = run_specs(
                [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                policy=CKPT_POLICY,
            )
        assert out.ok and out.attempts == 2
        assert out.checkpoint_resumed
        assert out.checkpoints_written >= 1
        assert stats.checkpoint_resumes == 1
        assert stats.checkpoints_written >= 2  # attempt 1's write + resumes
        assert out.result.cycles == clean.result.cycles
        assert out.result.energy_pj == clean.result.energy_pj
        assert out.result.sim.stats == clean.result.sim.stats

    def test_landed_result_prunes_its_checkpoint(self, tmp_path):
        plan = faultlib.FaultPlan(rules=(
            faultlib.FaultRule(faultlib.SIM_KILL, SPEC.label, attempts=(1,)),
        ))
        with plan.active():
            (out,), _ = run_specs(
                [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                policy=CKPT_POLICY,
            )
        assert out.ok
        assert find_ckpts(str(tmp_path)) == []  # superseded and reaped

    def test_failed_spec_keeps_checkpoint_for_forensics(self, tmp_path):
        """A spec that never lands keeps its newest checkpoint on disk —
        it is the resume point for the next sweep and a CI artifact."""
        plan = faultlib.FaultPlan(rules=(
            # every attempt: the retry budget runs out
            faultlib.FaultRule(faultlib.SIM_KILL, SPEC.label),
        ))
        policy = ExecPolicy(
            max_retries=1, backoff_base_s=0.0, quarantine_after=99,
            checkpoint_interval_cycles=64,
        )
        with plan.active():
            (out,), stats = run_specs(
                [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                policy=policy,
            )
        assert not out.ok
        assert out.checkpoints_written >= 1  # counted even on failure
        assert stats.checkpoints_written >= 1
        assert len(find_ckpts(str(tmp_path))) == 1

    def test_rerun_resumes_a_failed_spec_from_its_checkpoint(self, tmp_path):
        """The checkpoint a failed spec keeps is where the next run of the
        same sweep picks up, and the resumed run lands the same bits."""
        (clean,), _ = run_specs([SPEC], jobs=1, use_cache=False)
        plan = faultlib.FaultPlan(rules=(
            faultlib.FaultRule(faultlib.SIM_KILL, SPEC.label),
        ))
        policy = ExecPolicy(max_retries=0, checkpoint_interval_cycles=64)
        with plan.active():
            (failed,), _ = run_specs(
                [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                policy=policy,
            )
        assert not failed.ok and len(find_ckpts(str(tmp_path))) == 1

        (out,), stats = run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
            policy=policy,
        )
        assert out.ok and not out.cache_hit and out.checkpoint_resumed
        assert stats.checkpoint_resumes == 1
        assert out.result.sim.stats == clean.result.sim.stats
        assert out.result.energy_pj == clean.result.energy_pj
        assert find_ckpts(str(tmp_path)) == []  # superseded by the result

    def test_counters_quiet_without_checkpointing(self, tmp_path):
        (out,), stats = run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
        )
        assert out.ok
        assert stats.checkpoints_written == 0
        assert stats.checkpoint_resumes == 0
        assert "checkpoint" not in stats.render()
        assert find_ckpts(str(tmp_path)) == []


class TestDeadlockArtifact:
    def test_watchdog_failure_writes_dump_next_to_checkpoint(self, tmp_path):
        """A DeadlockError in the worker persists its diagnostic dump as
        ``<ckpt>.deadlock.json`` so CI can upload it on failure."""
        policy = ExecPolicy(max_cycles=50, checkpoint_interval_cycles=0)
        (out,), _ = run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
            policy=policy,
        )
        assert not out.ok and out.error_type == "DeadlockError"
        expected = checkpoint_path(SPEC, cache_key(SPEC), str(tmp_path))
        dump_path = f"{expected}.deadlock.json"
        assert os.path.exists(dump_path)
        payload = json.load(open(dump_path))
        assert payload["label"] == SPEC.label
        assert payload["dump"]["reason"] == "max_cycles"
        assert payload["dump"]["sms"][0]["warps"]  # per-warp detail intact

    def test_clear_cache_reaps_dumps_and_checkpoints(self, tmp_path):
        policy = ExecPolicy(max_cycles=50)
        run_specs([SPEC], jobs=1, use_cache=True, cache_dir=str(tmp_path),
                  policy=policy)
        leak = tmp_path / "stale.ckpt"
        leak.write_bytes(b"x")
        removed = parallel.clear_cache(str(tmp_path))
        assert removed >= 2  # the .deadlock.json + the stale .ckpt
        assert find_ckpts(str(tmp_path)) == []
        assert glob.glob(str(tmp_path / "**" / "*.deadlock.json"),
                         recursive=True) == []


class TestTmpReaping:
    def test_stale_ckpt_tmp_is_reaped(self, tmp_path):
        directory = str(tmp_path)
        os.makedirs(directory, exist_ok=True)
        stale = os.path.join(directory, "run.ckpt.tmp.4242")
        open(stale, "wb").close()
        old = time.time() - 2 * parallel.STALE_TMP_AGE_S
        os.utime(stale, (old, old))
        fresh = os.path.join(directory, "run.ckpt.tmp.4243")
        open(fresh, "wb").close()
        assert parallel.reap_stale_tmp(directory) == 1
        assert not os.path.exists(stale) and os.path.exists(fresh)

    def test_sweep_counts_reaped_tmp_files(self, tmp_path):
        directory = str(tmp_path)
        stale = os.path.join(directory, "dead.ckpt.tmp.999")
        open(stale, "wb").close()
        old = time.time() - 2 * parallel.STALE_TMP_AGE_S
        os.utime(stale, (old, old))
        _, stats = run_specs(
            [SPEC], jobs=1, use_cache=True, cache_dir=directory,
        )
        assert stats.stale_tmp_reaped == 1
        assert "1 stale tmp file" in stats.render()
        assert not os.path.exists(stale)
