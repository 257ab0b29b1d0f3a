"""Experiment harness: one driver per paper table/figure.

- :mod:`repro.harness.runner` — builds workloads, runs them under
  registry-declared variants (BASE / UV / DAC-IDEAL / DARSIE / ...)
  and verifies every run against its numpy oracle.
- :mod:`repro.harness.experiments` — ``figure1`` ... ``figure12``,
  ``table1`` ... ``table3``, ``area_estimate``, ``survey``: each returns
  a structured result with a ``render()`` text form printing the same
  rows/series the paper reports.
- :mod:`repro.harness.parallel` — process-pool fan-out of
  :class:`~repro.config.RunConfig`-described runs with an on-disk
  result cache, one attempt per spec (re-running a sweep resumes it
  from the cache and retries its failures), per-spec failure capture,
  pool rebuild after a worker death and per-sweep observability
  (``RunSpec`` / ``run_specs`` / ``sweep``).
- :mod:`repro.harness.faults` — deterministic, seeded fault injection
  (:class:`~repro.harness.faults.FaultPlan`) used to prove the above.
- :mod:`repro.harness.chaos` — the ``python -m repro chaos`` soak that
  runs a sweep under an injected FaultPlan, re-runs it without the
  plan, and asserts bit-identical results vs. a clean run.
- :mod:`repro.harness.reporting` — plain-text table rendering.
"""

from repro.harness import experiments, parallel
from repro.harness.parallel import RunOutcome, RunSpec, SweepError, SweepStats, run_specs
from repro.harness.reporting import format_table
from repro.harness.runner import RunResult, VerificationError, WorkloadRunner


def __getattr__(name: str):
    # Live view of the variant registry (late registrations included).
    if name == "CONFIG_NAMES":
        from repro.variants import REGISTRY

        return REGISTRY.names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CONFIG_NAMES",
    "RunOutcome",
    "RunResult",
    "RunSpec",
    "SweepError",
    "SweepStats",
    "VerificationError",
    "WorkloadRunner",
    "experiments",
    "format_table",
    "parallel",
    "run_specs",
]
