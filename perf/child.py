"""One measured phase of the benchmark, run in a fresh interpreter.

``run.py`` starts this script once per phase repetition so that every
measurement sees a cold process: nothing memoized, nothing imported.
The phase's result is the last line of standard output, as JSON.

Phases:

- ``setup`` — everything before cycle 0: the import, the code
  fingerprint, and for every (app, variant) of the workload the runner,
  the program to simulate and the frontend (DAC profile included);
- ``cold`` — the workload's sweep through ``run_specs`` into an empty
  result cache, timed after imports;
- ``warm`` — the workload's outputs regenerated through the public
  drivers from the cache a cold phase left (``run.py`` times the whole
  process, interpreter start included).

Every phase runs under a :class:`~speed.Speedometer` for its timed
window and reports, under ``"speed"``, how fast the host was meanwhile.
With ``--trace FILE`` the cold and warm phases also run under the span
recorder and write its totals to FILE at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from speed import Speedometer
from workloads import cold_specs, digest_row, permute, run_warm


def _setup(workload: str, scale: str, seed: int, speed: Speedometer) -> dict:
    speed.start()
    start = time.perf_counter()
    import repro.harness.experiments  # noqa: F401
    from repro.harness import parallel
    from repro.harness.runner import WorkloadRunner
    from repro.workloads import build_workload

    parallel.code_fingerprint()
    for spec in permute(cold_specs(workload, scale), seed):
        runner = WorkloadRunner(build_workload(spec.abbr, spec.scale))
        runner.simulation_program(spec.config_name)
        if spec.config_name == parallel.FUNCTIONAL:
            continue  # functional specs build no frontend
        factory = runner.frontend_factory(spec.config_name)
        if factory is not None:
            factory()
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "speed": speed.stop()}


def _cold(workload: str, scale: str, seed: int, cache: str, speed: Speedometer) -> dict:
    from repro.harness import parallel

    specs = permute(cold_specs(workload, scale), seed)
    speed.start()
    start = time.perf_counter()
    outcomes, _stats = parallel.run_specs(specs, jobs=1, use_cache=True, cache_dir=cache)
    cold_s = time.perf_counter() - start
    return {
        "cold_s": cold_s,
        "speed": speed.stop(),
        "attempted": len(specs),
        "failed": [o.spec.label for o in outcomes if not o.ok],
        "rows": [digest_row(o) for o in outcomes if o.ok],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _warm(workload: str, scale: str, cache: str) -> dict:
    from repro.harness import parallel

    parallel.configure(jobs=1, use_cache=True, cache_dir=cache)
    stats = run_warm(workload, scale)
    return {
        "lookups": sum(s.runs for s in stats),
        "hits": sum(s.cache_hits for s in stats),
        "simulated": sum(s.simulated for s in stats),
        "failures": sum(s.failures for s in stats),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "cold", "warm"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache", help="result cache directory (cold / warm)")
    parser.add_argument("--trace", metavar="FILE", help="record spans, write them here")
    args = parser.parse_args()

    speed = Speedometer()
    if args.phase == "setup":
        print(json.dumps(_setup(args.workload, args.scale, args.seed, speed)))
        return
    rec = None
    if args.trace:
        from spans import SpanRecorder, install

        # The span clock stands still while a speedometer step runs, so
        # no span's time includes the steps.
        rec = SpanRecorder(clock=lambda: time.perf_counter() - speed.busy_s)
    if args.phase == "warm":
        speed.start()  # run.py times the whole process
        if rec is not None:
            rec.open("process.import")  # cold_s starts after imports
    import repro.harness.experiments  # noqa: F401

    if rec is not None:
        if args.phase == "warm":
            rec.close()
        install(rec)
    if args.phase == "cold":
        result = _cold(args.workload, args.scale, args.seed, args.cache, speed)
    else:
        result = _warm(args.workload, args.scale, args.cache)
        result["speed"] = speed.stop()
    if rec is not None:
        rec.dump(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
