"""Fuzz kernel specs: a JSON round-trippable program + launch + data.

A :class:`KernelSpec` is the unit the fuzzer generates, shrinks, saves
to the corpus and replays: the rendered DSL source, the launch geometry
and a deterministic data seed.  Specs become ordinary
:class:`repro.workloads.Workload` objects (with a vacuous numpy oracle —
the *differential* oracles are the check) so every existing verifier
(:func:`repro.staticlib.verify.verify_workload`,
:func:`repro.staticlib.soundness.audit_trace`) accepts them unchanged.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.simt.grid import Dim3, LaunchConfig
from repro.simt.memory import GlobalMemory
from repro.workloads.base import Workload

#: Size of the read-only input table every fuzz kernel may load from.
#: Loads mask their index to ``DATA_WORDS - 1``, so this must stay a
#: power of two.
DATA_WORDS = 32

#: Kernel parameters every generated spec declares, in order: the input
#: table, the per-thread output array and a one-word shared accumulator.
PARAM_NAMES = ("inp", "out", "acc")

CORPUS_DIRNAME = "corpus"


@dataclass(frozen=True)
class KernelSpec:
    """One fuzz candidate: program text, launch shape and input data."""

    name: str
    source: str
    grid_dim: Tuple[int, int, int] = (1, 1, 1)
    block_dim: Tuple[int, int, int] = (32, 2, 1)
    data_seed: int = 0
    #: triage breadcrumb for corpus entries: which oracle failed and why
    note: str = ""

    # -- derived objects ---------------------------------------------------

    def program(self) -> Program:
        return assemble(self.source, name=self.name)

    def launch(self) -> LaunchConfig:
        return LaunchConfig(grid_dim=Dim3(*self.grid_dim), block_dim=Dim3(*self.block_dim))

    @property
    def total_threads(self) -> int:
        gx, gy, gz = self.grid_dim
        bx, by, bz = self.block_dim
        return gx * gy * gz * bx * by * bz

    def input_data(self) -> np.ndarray:
        """Deterministic signed input table derived from ``data_seed``."""
        rng = np.random.default_rng(self.data_seed)
        return rng.integers(-100, 100, size=DATA_WORDS)

    def fresh_memory(self) -> Tuple[GlobalMemory, Dict[str, float]]:
        memory = GlobalMemory(1 << 16)
        params = {
            "inp": memory.alloc_array(self.input_data()),
            "out": memory.alloc(max(1, self.total_threads)),
            "acc": memory.alloc(1),
        }
        return memory, params

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        payload = {
            "name": self.name,
            "source": self.source,
            "grid_dim": list(self.grid_dim),
            "block_dim": list(self.block_dim),
            "data_seed": self.data_seed,
        }
        if self.note:
            payload["note"] = self.note
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "KernelSpec":
        return cls(
            name=payload["name"],
            source=payload["source"],
            grid_dim=tuple(payload.get("grid_dim", (1, 1, 1))),
            block_dim=tuple(payload.get("block_dim", (32, 2, 1))),
            data_seed=int(payload.get("data_seed", 0)),
            note=payload.get("note", ""),
        )

    def save(self, directory: str) -> str:
        """Write ``<directory>/<name>.kernel.json``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}.kernel.json")
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def load_spec(path: str) -> KernelSpec:
    with open(path) as fh:
        return KernelSpec.from_dict(json.load(fh))


def default_corpus_dir() -> str:
    """The committed corpus: ``tests/corpus`` relative to the repo root."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / CORPUS_DIRNAME
        if candidate.is_dir():
            return str(candidate)
    # Fall back to the conventional location even if it does not exist
    # yet (the first saved counterexample creates it).
    return str(here.parents[2].parent / "tests" / CORPUS_DIRNAME)


def corpus_specs(directory: str = None) -> Iterator[Tuple[str, KernelSpec]]:
    """Yield ``(path, spec)`` for every committed corpus program."""
    directory = directory or default_corpus_dir()
    if not os.path.isdir(directory):
        return
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".kernel.json"):
            path = os.path.join(directory, entry)
            yield path, load_spec(path)


def build_fuzz_workload(spec: KernelSpec) -> Workload:
    """Wrap a spec as a :class:`Workload` with a vacuous value oracle.

    Fuzz kernels have no closed-form expected output — correctness is
    *differential* (same end state under every execution mechanism) —
    so ``check`` always passes and the oracle stack does the judging.
    """
    return Workload(
        abbr=spec.name.upper()[:12],
        program=spec.program(),
        launch=spec.launch(),
        make_memory=spec.fresh_memory,
        check=lambda memory, params: True,
        scale="tiny",
        description=spec.note or "random differential-fuzz kernel",
    )
