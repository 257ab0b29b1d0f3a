"""Validate committed artifacts against the canonical config schema.

``python -m repro config-check`` (and the CI ``config-schema`` job) walks
every committed ``benchmarks/BENCH_*.json`` file and checks that the run
configurations it describes still make sense (the golden store's own
loader, :func:`repro.harness.golden.load`, checks the store):

- every variant name resolves in :data:`repro.variants.REGISTRY`,
- every workload abbreviation is a Table 1 workload,
- every derived :class:`repro.config.RunConfig` survives a canonical
  ``to_dict`` / ``from_dict`` round trip,
- bench files carry the expected schema version and a well-formed
  ``config`` block whose GPU diff parses.

This catches the drift the type system cannot: a variant renamed or
removed from the registry while a baseline file still references it, or
a committed config block hand-edited into something ``from_dict`` would
reject.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import ConfigError, RunConfig, gpu_from_dict
from repro.variants import REGISTRY
from repro.workloads import ALL_ABBRS

#: Files checked by default, relative to the repo root.
BENCH_GLOB = os.path.join("benchmarks", "BENCH_*.json")


@dataclass
class CheckReport:
    """Outcome of a config-schema sweep over committed files."""

    checked: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def problem(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def render(self) -> str:
        lines = [
            f"config-check: {'OK' if self.ok else 'FAIL'} "
            f"({len(self.checked)} file(s), {len(self.problems)} problem(s))"
        ]
        lines += [f"  checked {p}" for p in self.checked]
        lines += [f"  PROBLEM {p}" for p in self.problems]
        return "\n".join(lines)


def _check_run_config(report: CheckReport, path: str, config: RunConfig) -> None:
    """One entry: registry membership, workload validity, round trip."""
    if config.abbr not in ALL_ABBRS:
        report.problem(path, f"unknown workload {config.abbr!r}")
    if config.variant not in REGISTRY:
        report.problem(
            path, f"variant {config.variant!r} not in registry {REGISTRY.names()}"
        )
    try:
        back = RunConfig.from_dict(config.to_dict())
    except ConfigError as exc:
        report.problem(path, f"canonical round trip failed: {exc}")
        return
    if back != config:
        report.problem(path, f"canonical round trip not identical for {config.label}")


def check_bench_file(path: str, report: Optional[CheckReport] = None) -> CheckReport:
    """Validate one ``BENCH_*.json`` perf-baseline file."""
    from repro.harness.bench import BENCH_SCHEMA

    report = report if report is not None else CheckReport()
    report.checked.append(path)
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != BENCH_SCHEMA:
        report.problem(path, f"schema {data.get('schema')!r} != {BENCH_SCHEMA}")
        return report
    block = data.get("config")
    if not isinstance(block, dict):
        report.problem(path, "missing 'config' block")
        return report
    try:
        gpu = gpu_from_dict(block.get("gpu", {}))
    except ConfigError as exc:
        report.problem(path, f"bad gpu diff: {exc}")
        return report
    scale = block.get("scale", data.get("scale"))
    if block.get("scale") != data.get("scale"):
        report.problem(path, "config.scale disagrees with top-level scale")
    for name in block.get("variants", []):
        if name not in REGISTRY:
            report.problem(path, f"variant {name!r} not in registry {REGISTRY.names()}")
    for key in data.get("entries", {}):
        abbr, variant = key.split("/", 1)
        _check_run_config(
            report, path, RunConfig(abbr=abbr, variant=variant, scale=scale, gpu=gpu)
        )
    return report


def check_all(root: str = ".") -> CheckReport:
    """Sweep every committed bench baseline."""
    report = CheckReport()
    for path in sorted(glob.glob(os.path.join(root, BENCH_GLOB))):
        check_bench_file(path, report)
    if not report.checked:
        report.problem(root, "no bench files found to check")
    return report
