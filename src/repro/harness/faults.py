"""Deterministic, seeded fault injection for sweep execution.

The failure paths of :mod:`repro.harness.parallel` (per-spec failure
capture, pool rebuild after a hard worker death, cache-corruption and
cache-write failure detection) only earn trust if they can be
*provoked on demand and reproduced bit-for-bit*.  This module provides
that provocation layer:

- a :class:`FaultPlan` — an immutable, JSON-serializable set of
  :class:`FaultRule` entries keyed by spec label;
- deterministic construction: :func:`random_plan` derives a plan from a
  seed alone, so ``python -m repro chaos --seed 0`` injects the same
  faults on every machine;
- process-boundary transport: :func:`install` encodes the plan into the
  ``REPRO_FAULTS`` environment variable, so forked (or spawned) pool
  workers honor the same plan the parent installed.

Fault kinds
-----------
``crash``
    the worker dies hard (``os._exit``) — the pool sees a
    ``BrokenProcessPool``, exactly the segfault/OOM-kill signature.  In
    serial execution the same rule raises :class:`WorkerCrashed` instead
    (killing the only process would kill the sweep itself).
``permanent``
    raises :class:`PermanentFault`, recorded as a plain per-spec
    failure.
``corrupt-store``
    the result-cache write for the spec silently stores garbage bytes
    instead of a pickle — a later read must detect the corruption, count
    it, and fall back to a live run.
``store-oserror``
    the result-cache write raises ``OSError`` (read-only / full disk
    semantics) — counted in ``SweepStats.cache_write_failures``.

Every rule fires on every run of its spec while the plan is installed;
re-running the sweep without the plan is how its failures are retried.
Injection points live in :mod:`repro.harness.parallel`
(:func:`before_execute` in the worker, the two cache hooks in the
parent); this module itself never imports the harness, so there is no
import cycle.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Environment variable carrying the JSON-encoded active plan across the
#: process boundary to pool workers.
FAULTS_ENV = "REPRO_FAULTS"

CRASH = "crash"
PERMANENT = "permanent"
CORRUPT_STORE = "corrupt-store"
STORE_OSERROR = "store-oserror"

#: Every fault kind, in the order :func:`random_plan` assigns them.
KINDS = (CRASH, PERMANENT, CORRUPT_STORE, STORE_OSERROR)

#: Exit status of an injected worker crash (distinctive in core dumps).
CRASH_EXIT_STATUS = 66


class PermanentFault(RuntimeError):
    """An injected failure of one spec."""


class WorkerCrashed(RuntimeError):
    """Serial-mode stand-in for a hard worker death.

    In a process pool an injected crash is a real ``os._exit`` and
    surfaces as ``BrokenProcessPool``; without a pool the same rule
    raises this instead, so the sweep records the spec as failed and
    goes on.
    """


@dataclass(frozen=True)
class FaultRule:
    """One injected fault: a kind and the spec label it hits."""

    kind: str
    label: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {KINDS}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(kind=data["kind"], label=data["label"])


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of fault rules."""

    rules: Tuple[FaultRule, ...] = ()
    #: provenance only — the seed :func:`random_plan` was built from
    seed: Optional[int] = None

    def fires(self, kind: str, label: str) -> bool:
        return any(r.kind == kind and r.label == label for r in self.rules)

    def labels_for(self, kind: str) -> List[str]:
        return [r.label for r in self.rules if r.kind == kind]

    def to_json(self) -> str:
        return json.dumps(
            {"rules": [r.to_dict() for r in self.rules], "seed": self.seed},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", ())),
            seed=data.get("seed"),
        )

    def describe(self) -> str:
        if not self.rules:
            return "fault plan: empty"
        lines = [f"fault plan (seed={self.seed}):"]
        for r in self.rules:
            lines.append(f"  {r.kind:<14} {r.label}")
        return "\n".join(lines)

    @contextmanager
    def active(self) -> Iterator["FaultPlan"]:
        """Install the plan for the dynamic extent of a ``with`` block."""
        install(self)
        try:
            yield self
        finally:
            uninstall()


def random_plan(labels: Sequence[str], seed: int = 0) -> FaultPlan:
    """A randomized-but-seeded plan assigning each kind a distinct label.

    Labels are shuffled with ``random.Random(seed)`` (after sorting, so
    the input order never matters) and the kinds are dealt out in
    :data:`KINDS` order; with fewer labels than kinds the trailing kinds
    are dropped.
    """
    pool = sorted(set(labels))
    random.Random(seed).shuffle(pool)
    rules = tuple(FaultRule(kind=kind, label=label) for kind, label in zip(KINDS, pool))
    return FaultPlan(rules=rules, seed=seed)


# ---------------------------------------------------------------------------
# Activation: module global + environment variable for pool workers
# ---------------------------------------------------------------------------

_active: Optional[FaultPlan] = None
_env_memo: Dict[str, FaultPlan] = {}


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` in this process and export it to child workers."""
    global _active
    _active = plan
    os.environ[FAULTS_ENV] = plan.to_json()


def uninstall() -> None:
    global _active
    _active = None
    os.environ.pop(FAULTS_ENV, None)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, if any — env-var decoded in worker processes."""
    if _active is not None:
        return _active
    encoded = os.environ.get(FAULTS_ENV)
    if not encoded:
        return None
    if encoded not in _env_memo:
        _env_memo.clear()  # plans change rarely; never hold stale ones
        _env_memo[encoded] = FaultPlan.from_json(encoded)
    return _env_memo[encoded]


# ---------------------------------------------------------------------------
# Injection points (called by repro.harness.parallel)
# ---------------------------------------------------------------------------


def before_execute(label: str, in_child: bool) -> None:
    """Worker-side hook: crash or raise per the active plan."""
    plan = active_plan()
    if plan is None:
        return
    if plan.fires(CRASH, label):
        if in_child:
            os._exit(CRASH_EXIT_STATUS)  # a real hard death, not an exception
        raise WorkerCrashed(f"injected crash for {label}")
    if plan.fires(PERMANENT, label):
        raise PermanentFault(f"injected permanent fault for {label}")


def corrupts_store(label: str) -> bool:
    """Parent-side hook: should this spec's cache write store garbage?"""
    plan = active_plan()
    return plan is not None and plan.fires(CORRUPT_STORE, label)


def fails_store(label: str) -> bool:
    """Parent-side hook: should this spec's cache write raise ``OSError``?"""
    plan = active_plan()
    return plan is not None and plan.fires(STORE_OSERROR, label)


#: Bytes an injected ``corrupt-store`` writes: a valid pickle protocol
#: prefix followed by junk, so the reader fails *inside* unpickling.
CORRUPT_BYTES = b"\x80\x04injected-cache-corruption"


__all__ = [
    "FAULTS_ENV",
    "KINDS",
    "CRASH",
    "PERMANENT",
    "CORRUPT_STORE",
    "STORE_OSERROR",
    "CORRUPT_BYTES",
    "CRASH_EXIT_STATUS",
    "FaultPlan",
    "FaultRule",
    "PermanentFault",
    "WorkerCrashed",
    "active_plan",
    "before_execute",
    "corrupts_store",
    "fails_store",
    "install",
    "random_plan",
    "uninstall",
]
