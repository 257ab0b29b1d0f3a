"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro figure8 [--scale small] [--apps MM,LIB]
    python -m repro figure8 --scale tiny --set gpu.l1_lines=512
    python -m repro all --scale tiny --jobs 4
    python -m repro figure8 --jobs 4 --no-cache
    python -m repro run MM --config DARSIE --set darsie.skip_ports=4 --trace
    python -m repro sweep darsie.skip_ports --values 1,2,4,8 --apps MM
    python -m repro lint [MM,LIB] [--strict] [--format json] [--melded]
    python -m repro soundness --scale tiny
    python -m repro meld-verify --scale tiny
    python -m repro compare-techniques --scale tiny
    python -m repro bench --scale small --out BENCH_timing.json
    python -m repro bench --scale tiny --baseline benchmarks/BENCH_baseline_tiny.json
    python -m repro golden --jobs 2
    python -m repro fuzz --seed 0 --budget 200

Experiment names and their accepted arguments are derived from
:data:`repro.harness.experiments.EXPERIMENT_REGISTRY` — a driver that
declares ``scale`` / ``abbrs`` / ``gpu_config`` parameters receives
them; there is no dispatch table to keep in sync here.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

from repro.config import ConfigError, RunConfig, apply_overrides, parse_overrides
from repro.harness import parallel
from repro.harness.experiments import EXPERIMENT_REGISTRY, ablation_sweep
from repro.timing.gpu import DeadlockError
from repro.workloads import ALL_ABBRS, EXTENDED_ABBRS

COMMANDS = ["list", "all", "run", "sweep", "lint", "soundness", "meld-verify", "bench",
            "golden", "fuzz"]

#: Extra keys commands may stage for the --stats-dump payload (written in
#: main()'s finally, which would otherwise overwrite a command's dump).
_EXTRA_DUMP: dict = {}


@contextmanager
def _timed(label: str):
    """Print ``[<label> in <seconds>s]`` once the block completes."""
    # perf_counter: monotonic, unlike time.time() under clock adjustment
    start = time.perf_counter()
    yield
    print(f"\n[{label} in {time.perf_counter() - start:.1f}s]")


def _gpu_config(parser, command: str, overrides, hint: str = ""):
    """The GPU config that ``--set`` overrides describe, for commands
    that take a whole-machine GPU config and nothing else: any
    non-``gpu.*`` path is a usage error.  ``None`` without overrides."""
    if not overrides:
        return None
    non_gpu = sorted(p for p in overrides if not p.startswith("gpu."))
    if non_gpu:
        parser.error(f"`{command}` only accepts gpu.* overrides; got {non_gpu}{hint}")
    return apply_overrides(RunConfig(abbr="MM"), overrides).gpu


def _parse_apps(parser, text):
    """The upper-cased abbreviations of a comma-separated app list, or
    None for no list; an app outside the extended set is a usage error."""
    if not text:
        return None
    abbrs = tuple(a.strip().upper() for a in text.split(","))
    unknown = set(abbrs) - set(EXTENDED_ABBRS)
    if unknown:
        parser.error(f"unknown apps: {sorted(unknown)}; known: {EXTENDED_ABBRS}")
    return abbrs


@contextmanager
def _journal(workdir):
    """Yield ``emit(record)``, which appends ``record`` as one JSON line
    to ``workdir/journal.jsonl``; without a workdir it writes nothing."""
    if not workdir:
        yield lambda record: None
        return
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "journal.jsonl"), "w") as fh:
        def emit(record) -> None:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

        yield emit


def _takes(name: str, param: str) -> bool:
    return param in inspect.signature(EXPERIMENT_REGISTRY[name]).parameters


def run_one(name: str, scale: str, abbrs, gpu_config=None, parser=None) -> None:
    fn = EXPERIMENT_REGISTRY[name]
    kwargs = {}
    if _takes(name, "scale"):
        kwargs["scale"] = scale
    for param, value, what in (("abbrs", abbrs, "an app list (--apps)"),
                               ("gpu_config", gpu_config,
                                "a GPU configuration (gpu.* override)")):
        if not value:
            continue
        if not _takes(name, param):
            message = f"{name} does not take {what}"
            if parser is not None:
                parser.error(message)
            raise ConfigError(message)
        kwargs[param] = value
    with _timed(f"{name} regenerated"):
        result = fn(**kwargs)
        text = result if isinstance(result, str) else result.render()
        print(text)
        stats = getattr(result, "sweep_stats", None)
        if stats is not None:
            print(f"\n{stats.render()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from the DARSIE paper (ASPLOS 2020).",
    )
    parser.add_argument("experiment", choices=list(EXPERIMENT_REGISTRY) + COMMANDS)
    parser.add_argument("workload", nargs="?", default=None,
                        help="for `run`: a Table 1 abbreviation, e.g. MM; "
                             "for `sweep`: a dotted config field, e.g. darsie.skip_ports; "
                             "for `lint`: comma-separated abbreviations (default: all)")
    parser.add_argument("--scale", default=None, choices=["tiny", "small", "medium"],
                        help="workload problem size (default: small; tiny for "
                             "meld-verify)")
    parser.add_argument("--apps", default=None,
                        help="comma-separated Table 1 abbreviations (default: all); "
                             "a driver without an app list rejects it, and `all` "
                             "passes it to the drivers that take one")
    parser.add_argument("--config", default="DARSIE",
                        help="for `run`: BASE / UV / DAC-IDEAL / DARSIE / variants")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="dotted-path config override, e.g. gpu.l1_lines=512 "
                             "or darsie.skip_ports=4 (repeatable)")
    parser.add_argument("--values", default=None, metavar="V1,V2,...",
                        help="for `sweep`: comma-separated values of the swept field")
    parser.add_argument("--trace", action="store_true",
                        help="for `run`: print a pipeline trace of the first cycles")
    parser.add_argument("--pipeline-trace", default=None, metavar="PATH",
                        dest="pipeline_trace",
                        help="for `run`: dump per-cycle per-stage occupancy "
                             "as JSONL to PATH")
    parser.add_argument("--json", action="store_true",
                        help="for `run`: dump the result counters as JSON")
    parser.add_argument("--jobs", type=int, metavar="N",
                        default=os.environ.get("REPRO_JOBS") or "1",
                        help="fan (workload, config) runs across N worker "
                             "processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the results/.cache "
                             "result cache")
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete all cached results before running")
    parser.add_argument("--strict", action="store_true",
                        help="for `lint`: treat warnings as failures too")
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=["text", "json"],
                        help="for `lint`: report format (default: text)")
    parser.add_argument("--melded", action="store_true",
                        help="for `lint`: lint each kernel after the "
                             "control-flow melding transform as well")
    parser.add_argument("--repeats", type=int, default=2, metavar="N",
                        help="for `bench`: timing repeats per entry (default: 2)")
    parser.add_argument("--out", default="BENCH_timing.json", metavar="PATH",
                        help="for `bench`: where to write the report "
                             "(default: BENCH_timing.json)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="for `bench`: baseline report to gate against")
    parser.add_argument("--tolerance", type=float, default=None, metavar="X",
                        help="for `bench`: fail when more than X times slower "
                             "than the baseline (default: 2.0)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="for `fuzz`: campaign seed (default: 0)")
    parser.add_argument("--budget", type=int, default=200, metavar="M",
                        help="for `fuzz`: number of random kernels to generate "
                             "(default: 200)")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="for `fuzz`: corpus directory to replay and save "
                             "shrunk failures into (default: tests/corpus)")
    parser.add_argument("--no-save", action="store_true",
                        help="for `fuzz`: do not write shrunk failures to the "
                             "corpus directory")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="for `meld-verify`/`fuzz`: directory for the "
                             "journal.jsonl progress log (CI keeps it as a "
                             "failure artifact)")
    parser.add_argument("--stats-dump", default=None, metavar="PATH",
                        help="write the final sweep stats as JSON on exit "
                             "(CI uploads this when a smoke job fails)")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = "tiny" if args.experiment == "meld-verify" else "small"

    try:
        overrides = parse_overrides(args.overrides)
    except ConfigError as exc:
        parser.error(str(exc))

    # The sweep defaults hold for this command only: an in-process
    # caller's later sweeps run under its own defaults again.
    with parallel.configured(jobs=args.jobs, use_cache=not args.no_cache):
        return _run(parser, args, overrides)


def _run(parser, args, overrides) -> int:
    """Run the parsed command; returns its exit status."""
    if args.clear_cache:
        removed = parallel.clear_cache()
        print(f"[cache] removed {removed} cached result(s)")

    try:
        return _dispatch(parser, args, overrides)
    except ConfigError as exc:
        parser.error(str(exc))
    except parallel.SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for outcome in exc.failures:
            first_line = (outcome.error or "").partition("\n")[0]
            print(f"  {outcome.spec.label}: {outcome.error_type}: {first_line}",
                  file=sys.stderr)
        return 1
    except DeadlockError as exc:
        # `run` simulates in this process, outside any sweep
        print(f"error: DeadlockError: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.stats_dump:
            _write_stats_dump(args.stats_dump)


def _write_stats_dump(path: str) -> None:
    """Persist the last sweep's counters (a CI failure artifact)."""
    stats = parallel.last_sweep_stats()
    payload = {"last_sweep": stats.to_dict() if stats is not None else None}
    payload.update(_EXTRA_DUMP)
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"[stats-dump] could not write {path}: {exc}", file=sys.stderr)


def _dispatch(parser, args, overrides) -> int:
    if args.experiment == "run":
        return run_workload(parser, args, overrides)

    if args.experiment == "sweep":
        return run_sweep(parser, args, overrides)

    if args.experiment == "lint":
        return run_lint(parser, args)

    if args.experiment == "soundness":
        return run_soundness(parser, args)

    if args.experiment == "meld-verify":
        return run_meld_verify(parser, args)

    if args.experiment == "bench":
        return run_bench_cmd(parser, args, overrides)

    if args.experiment == "golden":
        return run_golden(parser, args, overrides)

    if args.experiment == "fuzz":
        return run_fuzz(parser, args)

    if args.experiment == "list":
        return run_list()

    # Experiment drivers take a whole-machine GPU config, not per-run
    # frontend knobs; `run` and `sweep` cover the rest of the surface.
    gpu_config = _gpu_config(
        parser, args.experiment, overrides,
        " (use `run` or `sweep` for frontend/variant overrides)",
    )

    abbrs = _parse_apps(parser, args.apps)
    everything = args.experiment == "all"
    names = list(EXPERIMENT_REGISTRY) if everything else [args.experiment]
    for name in names:
        # `all --apps` and `all --set gpu.*` reach only the drivers that
        # take an app list or a GPU config; the others run unchanged.
        apps = abbrs if not everything or _takes(name, "abbrs") else None
        gpu = gpu_config if not everything or _takes(name, "gpu_config") else None
        run_one(name, args.scale, apps, gpu_config=gpu, parser=parser)
        print()
    return 0


def run_list() -> int:
    from repro.variants import REGISTRY

    print("available experiments:")
    for name in EXPERIMENT_REGISTRY:
        print(f"  {name}")
    print("\nregistered variants (for `run --config` / sweeps):")
    for variant in REGISTRY:
        tags = ",".join(variant.tags)
        print(f"  {variant.name:<22} [{tags}] {variant.description}")
    return 0


def _resolve_abbrs(parser, args, default=ALL_ABBRS):
    """Kernel selection for `lint`/`soundness`/...: positional, --apps,
    or the command's default set."""
    return _parse_apps(parser, args.workload or args.apps) or default


def run_lint(parser, args) -> int:
    """`python -m repro lint [ABBR,...] [--scale S] [--strict]
    [--format json] [--melded]`."""
    from repro.staticlib import lint_program, lint_workload
    from repro.workloads import build_workload

    abbrs = _resolve_abbrs(parser, args, default=EXTENDED_ABBRS)
    reports = []   # (abbr, melded?, LintReport)
    for abbr in abbrs:
        workload = build_workload(abbr, args.scale)
        reports.append((abbr, False, lint_workload(workload)))
        if args.melded:
            from repro.staticlib.passes import darm_ideal_pass

            melded = darm_ideal_pass(workload.program)
            reports.append((abbr, True, lint_program(melded, launch=workload.launch)))
    errors = sum(len(r.errors) for _, _, r in reports)
    warnings = sum(len(r.warnings) for _, _, r in reports)
    failed = bool(errors or (args.strict and warnings))

    if args.output_format == "json":
        payload = {
            "kernels": [
                {
                    "abbr": abbr,
                    "scale": args.scale,
                    "melded": melded,
                    "findings": [
                        {
                            "rule": f.rule,
                            "severity": f.severity,
                            "pc": f.pc,
                            "message": f.message,
                        }
                        for f in report.findings
                    ],
                }
                for abbr, melded, report in reports
            ],
            "errors": errors,
            "warnings": warnings,
            "strict": args.strict,
            "failed": failed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for abbr, melded, report in reports:
            tag = f"{abbr}+meld" if melded else abbr
            print(f"{tag:>13}: {report.render()}")
        print(f"\nlint: {len(reports)} kernel(s), {errors} error(s), "
              f"{warnings} warning(s)" + (" [strict]" if args.strict else ""))
    return 1 if failed else 0


def run_soundness(parser, args) -> int:
    """`python -m repro soundness [--scale S] [--apps ABBR,...]`."""
    from repro.staticlib import audit_all

    abbrs = _resolve_abbrs(parser, args, default=EXTENDED_ABBRS)
    report = audit_all(scale=args.scale, abbrs=abbrs)
    print(report.render())
    return 0 if report.ok else 1


def run_meld_verify(parser, args) -> int:
    """`python -m repro meld-verify [--scale S] [--apps ABBR,...]
    [--workdir DIR] [--stats-dump PATH]`.

    Differentially verifies the control-flow melding transform: every
    selected workload runs functionally with and without melding and
    must produce bit-identical memory and register state (plus a
    linter-clean melded program).  Exits nonzero on any mismatch.
    """
    from repro.staticlib.verify import verify_all

    abbrs = _resolve_abbrs(parser, args, default=EXTENDED_ABBRS)
    with _journal(args.workdir) as emit, _timed("meld-verify done"):
        def progress(check):
            print(f"  {check.summary()}", flush=True)
            emit(check.to_dict())

        report = verify_all(scale=args.scale, abbrs=abbrs, progress=progress)
        _EXTRA_DUMP["meld_verify"] = report.to_dict()
        print()
        print(report.render())
    return 0 if report.ok else 1


def run_bench_cmd(parser, args, overrides) -> int:
    """`python -m repro bench [--scale S] [--apps ...] [--repeats N]
    [--out PATH] [--baseline PATH] [--tolerance X]`."""
    from repro.harness import bench

    gpu_config = _gpu_config(parser, "bench", overrides)
    abbrs = _resolve_abbrs(parser, args)
    baseline = None
    if args.baseline is not None:
        # Before timing anything: a bad baseline would waste the whole run.
        try:
            baseline = bench.BenchReport.load(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load --baseline {args.baseline}: "
                         f"{type(exc).__name__}: {exc}")
    report = bench.run_bench(
        scale=args.scale,
        abbrs=abbrs,
        repeats=args.repeats,
        gpu_config=gpu_config,
        progress=lambda e: print(
            f"  {e.abbr}/{e.config}: {e.wall_s_min:.3f}s ({e.cycles} cycles)",
            flush=True,
        ),
    )
    print()
    print(report.render())
    report.write(args.out)
    print(f"\n[bench report written to {args.out}]")
    if baseline is None:
        return 0
    tolerance = args.tolerance if args.tolerance is not None else bench.DEFAULT_TOLERANCE
    outcome = bench.compare(report, baseline, tolerance=tolerance)
    print(outcome.render(tolerance))
    return 0 if outcome.ok else 1


def run_fuzz(parser, args) -> int:
    """`python -m repro fuzz [--seed N] [--budget M] [--corpus DIR]
    [--no-save] [--workdir DIR] [--stats-dump PATH]`.

    First replays every committed corpus program (previously shrunk
    counterexamples) through every differential oracle, then runs a
    fresh hypothesis campaign of ``--budget`` random kernels.  Exits
    nonzero if any corpus program or fresh candidate fails; a shrunk
    reproducer is saved to the corpus directory for triage.
    """
    from repro.fuzz import fuzz_campaign, replay_corpus

    dump = _EXTRA_DUMP.setdefault("fuzz", {})
    with _journal(args.workdir) as emit, _timed("fuzz done"):
        replays = replay_corpus(args.corpus)
        for record in replays:
            status = "ok" if record["ok"] else "FAIL"
            print(f"  corpus {record['name']}: {status}", flush=True)
            emit(dict(record, phase="corpus"))
        corpus_failures = [r for r in replays if not r["ok"]]
        dump["corpus"] = replays
        print(f"corpus: {len(replays)} program(s), "
              f"{len(corpus_failures)} failure(s)")
        for record in corpus_failures:
            print(record["failure"])

        report = fuzz_campaign(
            seed=args.seed,
            budget=args.budget,
            corpus_dir=args.corpus,
            save=not args.no_save,
        )
        dump["campaign"] = report.to_dict()
        emit(dict(report.to_dict(), phase="campaign"))
        print()
        print(report.render())
    return 0 if report.ok and not corpus_failures else 1


def run_golden(parser, args, overrides) -> int:
    """`python -m repro golden [--jobs N] [--no-cache]`: recompute every
    pinned run, rewrite the golden store and print the specs that moved."""
    from repro.harness import golden

    if args.workload or args.apps or overrides:
        parser.error("golden recomputes the whole pinned matrix; "
                     "it takes no apps or overrides")
    if not os.path.isdir(os.path.dirname(golden.STORE_PATH)):
        parser.error(f"no {os.path.dirname(golden.STORE_PATH)} directory here; "
                     "run golden from the repository root")
    with _timed("golden store rewritten"):
        for line in golden.regenerate():
            print(line)
        print(parallel.last_sweep_stats().render())
    return 0


def run_sweep(parser, args, overrides) -> int:
    """`python -m repro sweep FIELD --values V1,V2,... [--apps ABBR]`."""
    if not args.workload:
        parser.error("sweep needs a dotted config field, e.g. darsie.skip_ports")
    if not args.values:
        parser.error("sweep needs --values V1,V2,...")
    field = args.workload
    # Reuse override parsing so swept values get the field's type
    # (ints in any base, bools as true/false/0/1, ...).
    values = [
        parse_overrides([f"{field}={text.strip()}"])[field]
        for text in args.values.split(",")
    ]
    abbrs = _parse_apps(parser, args.apps) or ("MM",)
    if len(abbrs) > 1:
        parser.error(f"sweep runs one app; got {list(abbrs)}")
    abbr = abbrs[0]
    gpu_config = _gpu_config(
        parser, "sweep", overrides, " (the swept field is positional)"
    )
    with _timed(f"sweep of {field} done"):
        result = ablation_sweep(
            field, values, abbr=abbr, scale=args.scale, gpu_config=gpu_config
        )
        print(result.render())
        if result.sweep_stats is not None:
            print(f"\n{result.sweep_stats.render()}")
    return 0


def run_workload(parser, args, overrides) -> int:
    """`python -m repro run ABBR --config NAME [--set PATH=VALUE] [--trace]`."""
    from repro.harness.runner import WorkloadRunner
    from repro.timing import PipelineTrace
    from repro.timing.gpu import GPU
    from repro.variants import REGISTRY
    from repro.workloads import build_workload

    if not args.workload or args.workload.upper() not in EXTENDED_ABBRS:
        parser.error(f"run needs a workload from {EXTENDED_ABBRS}")
    cfg = RunConfig(abbr=args.workload.upper(), variant=args.config, scale=args.scale)
    cfg = apply_overrides(cfg, overrides)
    if cfg.variant not in REGISTRY:
        parser.error(f"unknown configuration {cfg.variant!r}; known: {REGISTRY.names()}")
    runner = WorkloadRunner(build_workload(cfg.abbr, cfg.scale), cfg.gpu)
    base = runner.run("BASE")
    res = runner.run(cfg.variant, cfg.darsie)
    print(f"{cfg.label}:")  # the run made, knobs and overrides included
    print(f"  cycles  : {res.cycles} (BASE {base.cycles}, "
          f"speedup {base.cycles / res.cycles:.2f}x)")
    print(f"  executed: {res.stats.instructions_executed}  "
          f"skipped: {res.stats.instructions_skipped}  "
          f"eliminated: {res.stats.executions_eliminated}")
    print(f"  energy  : {res.energy_pj / 1e6:.2f} uJ "
          f"({1.0 - res.energy_pj / base.energy_pj:.1%} below BASE)")
    if args.json:
        print(res.sim.to_json(indent=2))
    if args.trace or args.pipeline_trace:
        # Re-run with the trace attached (traces are not cached).  Use
        # the variant's simulation program so transform-based variants
        # (DARM) trace the melded code they actually ran.
        mem, params = runner.workload.fresh()
        gpu = GPU(runner.simulation_program(cfg.variant), runner.workload.launch, mem,
                  params=params, config=runner.gpu_config,
                  frontend_factory=runner.frontend_factory(cfg.variant, cfg.darsie))
        trace = PipelineTrace()
        gpu.attach_trace(trace)
        gpu.run()
        if args.trace:
            print()
            print(trace.render(max_cycles=110, max_warps=10))
        if args.pipeline_trace:
            lines = trace.write_jsonl(args.pipeline_trace)
            print(f"  wrote {lines} stage-occupancy samples to {args.pipeline_trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
