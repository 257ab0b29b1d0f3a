"""The per-spec seam of a sweep.

:mod:`repro.harness.parallel` calls :func:`before_execute` with a spec's
label just before that spec executes: once per uncached spec, never for
a cache hit.  The call goes through this module
(``faults.before_execute(spec.label)``), so a replacement installed
after import takes effect.  Tests patch it to raise or ``os._exit`` and
so provoke a sweep's failure paths (``tests/harness/test_faults.py``);
``perf/spans.py`` wraps it to tag the spans that follow with the label.
"""


def before_execute(label: str) -> None:
    """Called with each uncached spec's label before it runs; a no-op."""
