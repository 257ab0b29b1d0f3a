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
  (``run_specs`` / ``sweep``).
- :mod:`repro.harness.golden` — the golden store: every pinned
  simulated number in one file, its strict loader, and the per-spec
  diff that ``python -m repro golden`` prints when it rewrites it.
- :mod:`repro.harness.faults` — ``before_execute(label)``, the no-op
  seam every uncached spec passes through; tests patch it to provoke
  the failure paths above.
- :mod:`repro.harness.reporting` — plain-text table rendering.
"""

from repro.harness import experiments, parallel
from repro.harness.parallel import RunOutcome, SweepError, SweepStats, run_specs
from repro.harness.reporting import format_table
from repro.harness.runner import RunResult, VerificationError, WorkloadRunner


__all__ = [
    "RunOutcome",
    "RunResult",
    "SweepError",
    "SweepStats",
    "VerificationError",
    "WorkloadRunner",
    "experiments",
    "format_table",
    "parallel",
    "run_specs",
]
