"""The differential oracle stack: the ways DARSIE must agree with BASE.

Each oracle takes a :class:`~repro.fuzz.spec.KernelSpec` and raises
:class:`OracleFailure` on disagreement; returning normally means the
candidate passed.  The stack:

1. **functional** — run the timing simulator twice, BASE frontend vs
   DARSIE frontend, and require the final global memory and every
   warp's architectural register/predicate files to match *bit for
   bit*.  Comparisons go through raw bytes, not ``==``, so NaN payloads
   produced by overflowing float chains compare like any other value.
2. **soundness** — replay the kernel functionally with the tracer and
   run :func:`repro.staticlib.soundness.audit_trace` over the promoted
   markings: static DR must be dynamically UNIFORM, promoted CR must be
   TB-redundant.
3. **meld** — :func:`repro.staticlib.verify.verify_workload` with the
   ideal (thresholdless) DARM melder.
4. **event-skip** — for DARSIE, DARSIE-NO-CF-SYNC, DAC-IDEAL, BASE,
   SILICON-SYNC and DUAL-ISSUE, the timing run must produce every
   :class:`~repro.timing.stats.SimStats` field of a never-sleep
   reference: a cycle-stepped run (``event_skip=False``) that wakes
   every warp on every tick (:class:`NeverSleepFrontend`), so GTO issue,
   the skip engine and the affine stream visit every warp as a full
   scan would.  Neither the idle-cycle fast-forward nor a sleeping warp
   may change a simulated statistic; a missing wake call shows up here.
5. **staged-pipeline** — the staged BASE pipeline drains cleanly, its
   per-stage counters are consistent, and its final memory matches the
   functional reference.

Register capture uses :class:`CapturingFrontend`, a pure delegator that
snapshots register files at ``on_tb_complete`` — the last hook at which
a threadblock's warps are still attached to the SM.
"""

from __future__ import annotations

from dataclasses import fields
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.baselines.dac import build_dac_profile
from repro.core.compiler_pass import analyze_program
from repro.core.darsie import DarsieFrontend
from repro.fuzz.spec import KernelSpec, build_fuzz_workload
from repro.staticlib.verify import RegisterDump, _diff_memory, _diff_registers, verify_workload
from repro.timing.config import small_config
from repro.timing.frontend import Frontend, NullFrontend
from repro.timing.gpu import SimulationResult, simulate
from repro.timing.stats import SimStats
from repro.variants import REGISTRY


class OracleFailure(AssertionError):
    """One oracle rejected one spec.  Carries the spec so hypothesis'
    shrinking re-raises the *minimal* failing program to the driver."""

    def __init__(self, oracle: str, spec: KernelSpec, detail: str):
        self.oracle = oracle
        self.spec = spec
        self.detail = detail
        super().__init__(
            f"oracle {oracle!r} failed for kernel "
            f"(grid={spec.grid_dim}, block={spec.block_dim}, "
            f"data_seed={spec.data_seed}):\n{detail}\n--- source ---\n{spec.source}"
        )


class CapturingFrontend(Frontend):
    """Delegate every hook to ``inner``; snapshot register files into
    ``sink`` as each threadblock completes."""

    def __init__(self, inner: Frontend, sink: RegisterDump):
        self.inner = inner
        self.sink = sink
        self.name = inner.name

    def bind(self, sm) -> None:
        self.sm = sm
        self.inner.bind(sm)

    def make_issue_stage(self, pipeline):
        return self.inner.make_issue_stage(pipeline)

    def on_tb_launch(self, tb_rt) -> None:
        self.inner.on_tb_launch(tb_rt)

    def on_tb_complete(self, tb_rt) -> None:
        self.inner.on_tb_complete(tb_rt)
        tb_index = tb_rt.tb.tb_index
        for wrt in tb_rt.warps:
            rf = wrt.warp.registers
            for name, value in rf._regs.items():
                self.sink[(tb_index, wrt.warp.warp_id, "r", name)] = np.asarray(value).copy()
            for name, value in rf._preds.items():
                self.sink[(tb_index, wrt.warp.warp_id, "p", name)] = np.asarray(value).copy()

    def fetch_cycle(self, cycle: int) -> None:
        self.inner.fetch_cycle(cycle)

    def next_wake(self, cycle: int) -> Optional[int]:
        return self.inner.next_wake(cycle)

    def filter_fetch(self, warp_rt, pc: int):
        return self.inner.filter_fetch(warp_rt, pc)

    def on_fetch(self, warp_rt, inst, is_leader: bool) -> Optional[Dict]:
        return self.inner.on_fetch(warp_rt, inst, is_leader)

    def eliminate_at_issue(self, warp_rt, inst) -> Optional[str]:
        return self.inner.eliminate_at_issue(warp_rt, inst)

    def on_executed(self, warp_rt, inst, result) -> None:
        self.inner.on_executed(warp_rt, inst, result)

    def on_writeback(self, warp_rt, entry) -> None:
        self.inner.on_writeback(warp_rt, entry)

    def blocks_after_branch(self, warp_rt, inst) -> bool:
        return self.inner.blocks_after_branch(warp_rt, inst)

    def on_syncthreads(self, tb_rt) -> None:
        self.inner.on_syncthreads(tb_rt)

    def on_warp_exit(self, warp_rt) -> None:
        self.inner.on_warp_exit(warp_rt)

    def on_store(self, tb_rt) -> None:
        self.inner.on_store(tb_rt)

    def on_global_communication(self) -> None:
        self.inner.on_global_communication()


class NeverSleepFrontend(CapturingFrontend):
    """A :class:`CapturingFrontend` that wakes every resident warp before
    each per-cycle pass, so no warp is ever skipped: the skip engine
    visits all of them and, next cycle, GTO issue probes all of them."""

    def fetch_cycle(self, cycle: int) -> None:
        for wrt in self.sm.warps:
            wrt.wake()
        self.inner.fetch_cycle(cycle)


#: the variants oracle 4 runs: issue order, sync waits, the skip engine
#: and the affine stream all depend on which warps a cycle visits
EVENT_SKIP_VARIANTS = (
    "DARSIE", "DARSIE-NO-CF-SYNC", "DAC-IDEAL", "BASE", "SILICON-SYNC", "DUAL-ISSUE",
)


def _darsie_factory(spec: KernelSpec) -> Callable[[], Frontend]:
    analysis = analyze_program(spec.program())
    return lambda: DarsieFrontend(analysis)


def _variant_factory(name: str, spec: KernelSpec, analysis) -> Callable[[], Frontend]:
    variant = REGISTRY.get(name)

    def dac_profile():
        memory, params = spec.fresh_memory()
        with np.errstate(all="ignore"):
            return build_dac_profile(spec.program(), spec.launch(), memory.words, params)

    inputs = SimpleNamespace(analysis=analysis, dac_profile=dac_profile)
    return variant.make_frontend(inputs, variant.darsie_defaults) or NullFrontend


def _timing_run(
    spec: KernelSpec,
    frontend_factory: Callable[[], Frontend],
    event_skip: bool = True,
    capture: Type[CapturingFrontend] = CapturingFrontend,
) -> Tuple[SimulationResult, np.ndarray, RegisterDump]:
    """One single-SM timing run; returns (result, memory words, registers)."""
    memory, params = spec.fresh_memory()
    registers: RegisterDump = {}
    config = small_config(num_sms=1, event_skip=event_skip)
    with np.errstate(all="ignore"):
        result = simulate(
            spec.program(),
            spec.launch(),
            memory,
            params,
            config=config,
            frontend_factory=lambda: capture(frontend_factory(), registers),
        )
    return result, memory.words.copy(), registers


# -- the oracles -----------------------------------------------------------


def oracle_functional_end_state(spec: KernelSpec) -> None:
    """BASE and DARSIE must leave bit-identical memory + register files."""
    _, base_mem, base_regs = _timing_run(spec, NullFrontend)
    _, dar_mem, dar_regs = _timing_run(spec, _darsie_factory(spec))
    problems: List[str] = []
    mem_problem = _diff_memory(base_mem, dar_mem)
    if mem_problem:
        problems.append(mem_problem)
    problems.extend(_diff_registers(base_regs, dar_regs))
    if problems:
        raise OracleFailure("functional", spec, "\n".join(problems[:12]))


def oracle_marking_soundness(spec: KernelSpec) -> None:
    """Static DR ⇒ dynamically uniform; promoted CR ⇒ TB-redundant."""
    from repro.staticlib.soundness import audit_workload

    with np.errstate(all="ignore"):
        audit = audit_workload(build_fuzz_workload(spec))
    if not audit.ok:
        detail = "\n".join(v.render() for v in audit.violations[:8])
        raise OracleFailure("soundness", spec, detail)


def oracle_meld(spec: KernelSpec) -> None:
    """The ideal DARM melder must preserve observable behaviour."""
    with np.errstate(all="ignore"):
        check = verify_workload(build_fuzz_workload(spec))
    if not check.ok:
        raise OracleFailure("meld", spec, "\n".join(check.problems[:12]))


def oracle_event_skip(spec: KernelSpec) -> None:
    """Neither idle-cycle fast-forward nor sleeping warps may change any
    simulated statistic: every :class:`SimStats` field must match the
    never-sleep, cycle-stepped reference."""
    analysis = analyze_program(spec.program())
    diffs: List[str] = []
    for name in EVENT_SKIP_VARIANTS:
        factory = _variant_factory(name, spec, analysis)
        fast, _, _ = _timing_run(spec, factory)
        ref, _, _ = _timing_run(spec, factory, event_skip=False, capture=NeverSleepFrontend)
        for f in fields(SimStats):
            a, b = getattr(fast.stats, f.name), getattr(ref.stats, f.name)
            if a != b:
                diffs.append(f"{name} {f.name}: run={a!r} reference={b!r}")
    if diffs:
        raise OracleFailure("event-skip", spec, "\n".join(diffs[:12]))


def oracle_staged_pipeline(spec: KernelSpec) -> None:
    """The staged BASE pipeline must drain cleanly and agree with the
    functional reference.

    Runs the kernel through :class:`~repro.timing.gpu.GPU` directly (so
    the stage pipeline's inter-stage buffers are inspectable after the
    run) and requires: the typed buffers drained at completion (no live
    warp left anything behind), the
    per-stage counters consistent (one decode per fetch, one execute per
    issue, nothing skipped or eliminated under BASE), and final global
    memory bit-identical to :func:`repro.simt.executor.run_functional`.
    """
    from repro.simt.executor import run_functional
    from repro.timing.gpu import GPU

    memory, params = spec.fresh_memory()
    with np.errstate(all="ignore"):
        gpu = GPU(
            spec.program(),
            spec.launch(),
            memory,
            params,
            config=small_config(num_sms=1),
        )
        result = gpu.run()

    problems: List[str] = []
    for sm in gpu.sms:
        pipe = sm.pipeline
        if sm.warps:
            problems.append(f"sm{sm.sm_id}: {len(sm.warps)} warp(s) still resident")
        # The run ends when the last TB completes; writebacks scheduled
        # past that cycle legitimately stay queued — but only ever for
        # warps that already exited (their values are architectural at
        # execute; writeback only releases scoreboard entries).
        stuck = [item for item in pipe.wbq.pending() if not item[2].exited]
        if stuck:
            problems.append(
                f"sm{sm.sm_id}: {len(stuck)} in-flight instruction(s) of "
                "live warps never wrote back"
            )
        if pipe.zero_cost.total:
            problems.append(
                f"sm{sm.sm_id}: zero-cost ledger nonzero after drain "
                f"({pipe.zero_cost.total})"
            )
    s = result.stats
    if s.instructions_fetched != s.instructions_decoded:
        problems.append(
            f"fetched {s.instructions_fetched} != decoded {s.instructions_decoded}"
        )
    if s.instructions_issued != s.instructions_executed:
        problems.append(
            f"issued {s.instructions_issued} != executed {s.instructions_executed}"
        )
    if s.instructions_skipped or s.executions_eliminated:
        problems.append(
            f"BASE skipped {s.instructions_skipped} / "
            f"eliminated {s.executions_eliminated} instruction(s)"
        )

    ref_memory, ref_params = spec.fresh_memory()
    with np.errstate(all="ignore"):
        run_functional(spec.program(), spec.launch(), ref_memory, ref_params)
    mem_problem = _diff_memory(ref_memory.words.copy(), memory.words.copy())
    if mem_problem:
        problems.append(mem_problem)
    if problems:
        raise OracleFailure("staged-pipeline", spec, "\n".join(problems[:12]))


#: Name -> oracle, in the order the stack runs.
ORACLES: Dict[str, Callable[[KernelSpec], None]] = {
    "functional": oracle_functional_end_state,
    "soundness": oracle_marking_soundness,
    "meld": oracle_meld,
    "event-skip": oracle_event_skip,
    "staged-pipeline": oracle_staged_pipeline,
}


def check_spec(
    spec: KernelSpec, oracles: Optional[Dict[str, Callable[[KernelSpec], None]]] = None
) -> None:
    """Run ``spec`` through the oracle stack.  Any non-oracle exception
    (assembler crash, simulator deadlock, …) is itself a finding and is
    wrapped as an :class:`OracleFailure` so it shrinks like one."""
    for name, oracle in (oracles if oracles is not None else ORACLES).items():
        try:
            oracle(spec)
        except OracleFailure:
            raise
        except Exception as exc:  # noqa: BLE001 — every crash is a finding
            raise OracleFailure(
                f"crash:{name}", spec, f"{type(exc).__name__}: {exc}"
            ) from exc
