"""Deterministic, seeded fault injection for sweep execution.

The paper's evaluation sweeps are long multi-process batch jobs, and the
fault-tolerance machinery in :mod:`repro.harness.parallel` (timeouts,
retries, pool recovery, quarantine, resume) only earns trust if its
failure modes can be *provoked on demand and reproduced bit-for-bit*.
This module provides that provocation layer:

- a :class:`FaultPlan` — an immutable, JSON-serializable set of
  :class:`FaultRule` entries keyed by spec label and attempt number;
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
``hang``
    the worker sleeps for :attr:`FaultPlan.hang_s` — long enough to trip
    a configured per-spec timeout.
``transient``
    raises :class:`TransientFault` — the retryable-exception taxonomy
    class; a rule scoped to attempt 1 models a failure that a retry
    cures.
``permanent``
    raises :class:`PermanentFault` — never retried, recorded as a plain
    per-spec failure.
``corrupt-store``
    the result-cache write for the spec silently stores garbage bytes
    instead of a pickle — a later read must detect the corruption, count
    it, and fall back to a live run.
``store-oserror``
    the result-cache write raises ``OSError`` (read-only / full disk
    semantics) — counted in ``SweepStats.cache_write_failures``.

Injection points live in :mod:`repro.harness.parallel`
(:func:`before_execute` in the worker, the two cache hooks in the
parent); this module itself never imports the harness, so there is no
import cycle.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Environment variable carrying the JSON-encoded active plan across the
#: process boundary to pool workers.
FAULTS_ENV = "REPRO_FAULTS"

CRASH = "crash"
HANG = "hang"
TRANSIENT = "transient"
PERMANENT = "permanent"
CORRUPT_STORE = "corrupt-store"
STORE_OSERROR = "store-oserror"

#: Every fault kind, in the order :func:`random_plan` assigns them.
KINDS = (CRASH, HANG, TRANSIENT, PERMANENT, CORRUPT_STORE, STORE_OSERROR)

#: Exit status of an injected worker crash (distinctive in core dumps).
CRASH_EXIT_STATUS = 66


class TransientFault(RuntimeError):
    """An injected failure that a retry is expected to cure."""


class PermanentFault(RuntimeError):
    """An injected failure that no retry can cure."""


class WorkerCrashed(RuntimeError):
    """Serial-mode stand-in for a hard worker death.

    In a process pool an injected crash is a real ``os._exit`` and
    surfaces as ``BrokenProcessPool``; without a pool the same rule
    raises this instead, so the retry/quarantine taxonomy treats both
    paths identically.
    """


@dataclass(frozen=True)
class FaultRule:
    """One injected fault: a kind, a spec label, and the attempts it hits.

    ``attempts`` is a tuple of 1-based attempt numbers; empty means
    *every* attempt (a permanent fault).
    """

    kind: str
    label: str
    attempts: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {KINDS}")

    def fires(self, label: str, attempt: int) -> bool:
        if self.label != label:
            return False
        return not self.attempts or attempt in self.attempts

    def to_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label, "attempts": list(self.attempts)}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            kind=data["kind"],
            label=data["label"],
            attempts=tuple(int(a) for a in data.get("attempts", ())),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of fault rules plus the hang duration."""

    rules: Tuple[FaultRule, ...] = ()
    #: how long a ``hang`` fault sleeps (a timeout should fire first)
    hang_s: float = 30.0
    #: provenance only — the seed :func:`random_plan` was built from
    seed: Optional[int] = None

    def fires(self, kind: str, label: str, attempt: int = 1) -> bool:
        return any(r.kind == kind and r.fires(label, attempt) for r in self.rules)

    def labels_for(self, kind: str) -> List[str]:
        return [r.label for r in self.rules if r.kind == kind]

    def to_json(self) -> str:
        return json.dumps(
            {
                "rules": [r.to_dict() for r in self.rules],
                "hang_s": self.hang_s,
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", ())),
            hang_s=float(data.get("hang_s", 30.0)),
            seed=data.get("seed"),
        )

    def describe(self) -> str:
        if not self.rules:
            return "fault plan: empty"
        lines = [f"fault plan (seed={self.seed}, hang_s={self.hang_s}):"]
        for r in self.rules:
            when = f"attempts {list(r.attempts)}" if r.attempts else "every attempt"
            lines.append(f"  {r.kind:<14} {r.label:<28} {when}")
        return "\n".join(lines)

    @contextmanager
    def active(self) -> Iterator["FaultPlan"]:
        """Install the plan for the dynamic extent of a ``with`` block."""
        install(self)
        try:
            yield self
        finally:
            uninstall()


def random_plan(
    labels: Sequence[str],
    seed: int = 0,
    hang_s: float = 30.0,
) -> FaultPlan:
    """A randomized-but-seeded plan assigning each kind a distinct label.

    Labels are shuffled with ``random.Random(seed)`` (after sorting, so
    the input order never matters) and the kinds are dealt out in
    :data:`KINDS` order; with fewer labels than kinds the trailing kinds
    are dropped.  ``crash`` and ``permanent`` rules fire on every
    attempt; ``transient`` fires on attempt 1 only and ``hang`` on
    attempts 1–2 (attempt 1 can be lost as collateral of a pool break,
    and the soak wants at least one guaranteed timeout), so a retry
    cures each.
    """
    pool = sorted(set(labels))
    rng = random.Random(seed)
    rng.shuffle(pool)
    rules: List[FaultRule] = []
    for kind, label in zip(KINDS, pool):
        attempts: Tuple[int, ...] = ()
        if kind == TRANSIENT:
            attempts = (1,)
        elif kind == HANG:
            attempts = (1, 2)
        rules.append(FaultRule(kind=kind, label=label, attempts=attempts))
    return FaultPlan(rules=tuple(rules), hang_s=hang_s, seed=seed)


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


def before_execute(label: str, attempt: int, in_child: bool) -> None:
    """Worker-side hook: hang, crash, or raise per the active plan.

    Order matters: a ``hang`` sleeps first (so a hang+crash rule pair
    models a wedged-then-killed worker), then ``crash`` kills the
    process, then the exception kinds raise.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.fires(HANG, label, attempt):
        time.sleep(plan.hang_s)
    if plan.fires(CRASH, label, attempt):
        if in_child:
            os._exit(CRASH_EXIT_STATUS)  # a real hard death, not an exception
        raise WorkerCrashed(f"injected crash for {label} (attempt {attempt})")
    if plan.fires(TRANSIENT, label, attempt):
        raise TransientFault(f"injected transient fault for {label} (attempt {attempt})")
    if plan.fires(PERMANENT, label, attempt):
        raise PermanentFault(f"injected permanent fault for {label} (attempt {attempt})")


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
    "HANG",
    "TRANSIENT",
    "PERMANENT",
    "CORRUPT_STORE",
    "STORE_OSERROR",
    "CORRUPT_BYTES",
    "CRASH_EXIT_STATUS",
    "FaultPlan",
    "FaultRule",
    "TransientFault",
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
