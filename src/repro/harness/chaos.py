"""Chaos soak: prove the sweep layer survives injected faults unchanged.

``python -m repro chaos --seed N`` runs a small (workload × variant)
sweep three times:

1. **clean** — no faults, no cache: the reference results;
2. **faulted** — under a seeded :func:`repro.harness.faults.random_plan`
   that crashes one spec's worker, raises a permanent exception in
   another, corrupts one spec's cache entry on write, and makes
   another's cache write fail;
3. **resume** — the same sweep re-run without the plan, against the
   faulted pass's cache, which is how a failed or killed sweep is
   retried: completed specs must come back as cache hits, and the
   corrupted cache entry must be detected and re-simulated.

The soak then asserts the failure-handling contract:

- zero unhandled exceptions (the sweep returns);
- the crashing and the raising spec fail; under a pool, a spec in
  flight with the crash may fail with it as ``BrokenProcessPool``, and
  the pool is rebuilt once; every other spec completes;
- every surviving spec's :class:`~repro.timing.SimStats`, cycle count
  and energy are **bit-identical** to the clean reference — failure
  handling may never change what a run computes;
- the resume pass fails nothing, matches the clean pass bit for bit,
  serves exactly the survivors with a readable cache entry as hits,
  and counts the corrupt entry.

Every deviation is collected into :class:`ChaosReport.problems` instead
of raising, so a CI run prints the whole picture before failing.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.harness import faults as faultlib
from repro.harness.parallel import (
    RunOutcome,
    RunSpec,
    SweepStats,
    clear_cache,
    run_specs,
    supports_fork,
)

#: Default chaos matrix: two fast kernels under three variants gives six
#: specs — one per fault kind in :data:`repro.harness.faults.KINDS`, and
#: two that no rule names.
DEFAULT_ABBRS = ("LIB", "FWS")
DEFAULT_CONFIGS = ("BASE", "UV", "DARSIE")


@dataclass
class ChaosReport:
    """Everything a chaos soak observed, plus the verdict."""

    seed: int
    plan: faultlib.FaultPlan
    clean_stats: SweepStats
    fault_stats: SweepStats
    resume_stats: SweepStats
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = [self.plan.describe(), ""]
        lines.append(f"clean : {self.clean_stats.render()}")
        lines.append(f"fault : {self.fault_stats.render()}")
        lines.append(f"resume: {self.resume_stats.render()}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        if self.problems:
            lines.append(f"chaos soak FAILED ({len(self.problems)} problem(s)):")
            lines.extend(f"  - {p}" for p in self.problems)
        else:
            lines.append("chaos soak OK: faults injected, stats bit-identical, "
                         "re-run served completed specs from the cache")
        return "\n".join(lines)


def _identical(a: RunOutcome, b: RunOutcome) -> bool:
    """Bit-identical result contract for timing runs."""
    ra, rb = a.result, b.result
    if type(ra) is not type(rb):
        return False
    if hasattr(ra, "sim"):  # RunResult
        return (
            ra.cycles == rb.cycles
            and ra.energy_pj == rb.energy_pj
            and ra.sim.stats == rb.sim.stats
        )
    return ra == rb  # FunctionalResult dataclass equality


def chaos_soak(
    seed: int = 0,
    scale: str = "tiny",
    abbrs: Sequence[str] = DEFAULT_ABBRS,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    jobs: int = 2,
    workdir: Optional[str] = None,
) -> ChaosReport:
    """Run the three-pass soak; see the module docstring for the contract.

    ``workdir`` names a persistent directory for the soak's cache (any
    stale entries there are cleared first); the default is a temp
    directory removed on exit.
    """
    specs = [
        RunSpec(abbr=a, config_name=c, scale=scale)
        for a in abbrs
        for c in configs
    ]
    pooled = jobs > 1 and len(specs) > 1 and supports_fork()
    plan = faultlib.random_plan([s.label for s in specs], seed=seed)

    clean, clean_stats = run_specs(specs, jobs=jobs, use_cache=False)

    with ExitStack() as stack:
        if workdir is None:
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-chaos-"))
        else:
            os.makedirs(workdir, exist_ok=True)
            tmp = workdir
        clear_cache(tmp)  # stale hits would skip the faults
        with plan.active():
            faulted, fault_stats = run_specs(specs, jobs=jobs, use_cache=True, cache_dir=tmp)
        resumed, resume_stats = run_specs(specs, jobs=jobs, use_cache=True, cache_dir=tmp)

    report = ChaosReport(
        seed=seed,
        plan=plan,
        clean_stats=clean_stats,
        fault_stats=fault_stats,
        resume_stats=resume_stats,
    )
    problems = report.problems

    crash_labels = set(plan.labels_for(faultlib.CRASH))
    permanent_labels = set(plan.labels_for(faultlib.PERMANENT))
    corrupt_labels = set(plan.labels_for(faultlib.CORRUPT_STORE))
    oserror_labels = set(plan.labels_for(faultlib.STORE_OSERROR))
    doomed = crash_labels | permanent_labels

    for ref in clean:
        if not ref.ok:
            problems.append(f"clean run failed for {ref.spec.label}: {ref.error_type}")
    if any(not o.ok for o in clean):
        report.notes.append("clean run failed; skipping fault-pass comparisons")
        return report

    # --- faulted pass -----------------------------------------------------
    for ref, out in zip(clean, faulted):
        label = out.spec.label
        if label in doomed:
            if out.ok:
                problems.append(f"{label} should have failed but succeeded")
        elif out.ok:
            if not _identical(ref, out):
                problems.append(f"{label}: stats under faults differ from the clean run")
        elif pooled and out.error_type == "BrokenProcessPool":
            report.notes.append(f"{label} was in flight with the crash and failed with it")
        else:
            problems.append(f"{label} failed under faults: {out.error_type}")
    survivors = {o.spec.label for o in faulted if o.ok}
    failed_writes = len(survivors & oserror_labels)
    if fault_stats.cache_write_failures != failed_writes:
        problems.append(
            f"expected {failed_writes} injected cache-write failure(s), "
            f"got {fault_stats.cache_write_failures}"
        )
    if pooled and fault_stats.pool_restarts != len(crash_labels):
        problems.append(
            f"expected {len(crash_labels)} pool restart(s) for the injected "
            f"crash(es), got {fault_stats.pool_restarts}"
        )

    # --- resume pass ------------------------------------------------------
    # Every survivor comes back as a cache hit unless its cached result
    # is unavailable: the corrupt-store spec's entry is garbage (detected
    # and re-simulated) and the store-oserror spec's entry was never
    # written.  Everything else, the faulted pass's failures included,
    # is simulated again, now without the plan.
    readable = survivors - corrupt_labels - oserror_labels
    hits = {o.spec.label for o in resumed if o.cache_hit}
    if hits != readable:
        problems.append(
            f"resume served {sorted(hits)} from the cache, "
            f"expected {sorted(readable)}"
        )
    corrupt_survivors = survivors & corrupt_labels
    if resume_stats.cache_read_failures != len(corrupt_survivors):
        problems.append(
            f"expected {len(corrupt_survivors)} corrupt cache entr(ies) on "
            f"resume, got cache_read_failures={resume_stats.cache_read_failures}"
        )
    for ref, out in zip(clean, resumed):
        label = out.spec.label
        if not out.ok:
            problems.append(f"{label} failed on resume: {out.error_type}")
        elif not _identical(ref, out):
            problems.append(f"{label}: resume stats differ from the clean run")
        elif label in corrupt_survivors and not out.cache_hit:
            report.notes.append(
                f"resume: corrupt cache entry of {label} detected and "
                "re-simulated bit-identically"
            )

    if not pooled:
        report.notes.append(
            "ran serially (no fork support or jobs=1): pool-restart path "
            "not exercised"
        )
    return report
