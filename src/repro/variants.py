"""Variant registry: every named run configuration, declared once.

A *variant* is a named way of running a kernel on the timing substrate —
the unmodified baseline, the UV and DAC-IDEAL comparison points, DARSIE
and its paper ablations (Figures 8 and 12).  Each registry entry
declares everything the rest of the stack needs:

- ``make_frontend`` — how to build the SM frontend for a run (given the
  :class:`~repro.harness.runner.WorkloadRunner`, which builds every
  input a frontend reads on first use, and the effective DARSIE knobs);
- ``tags`` — which experiment families select the variant, so the
  figure drivers query the registry instead of hand-copying name
  tuples;
- ``darsie_defaults`` — the knob preset a DARSIE-family variant runs
  with, which a run's ``darsie.*`` knobs refine (see
  :func:`repro.config.darsie_defaults`).

Adding a new ablation variant is one :func:`REGISTRY.register` call —
no edits to :mod:`repro.harness.runner` or
:mod:`repro.harness.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.baselines import DacIdealFrontend, UVFrontend
from repro.core import DarsieConfig, DarsieFrontend
from repro.isa.program import Program
from repro.staticlib.passes import darm_ideal_pass, darm_pass
from repro.timing.frontend import DualIssueFrontend, SiliconSyncFrontend


@dataclass(frozen=True)
class Variant:
    """One named run configuration."""

    name: str
    #: ``(runner, darsie) -> frontend factory``; the runner's
    #: ``.analysis`` and ``.dac_profile()`` are built on first read.
    #: Returns ``None`` for the unmodified baseline frontend.
    make_frontend: Callable[[object, Optional[DarsieConfig]], Optional[Callable]]
    #: experiment families that select this variant (none: reachable
    #: by name only)
    tags: Tuple[str, ...] = ()
    #: DARSIE knob preset this variant runs with (``None``: the variant
    #: takes no DARSIE knobs)
    darsie_defaults: Optional[DarsieConfig] = None
    description: str = ""
    #: ``program -> program`` static rewrite applied before simulation
    #: (``None``: run the workload's program as written).  This is how
    #: compiler-technique variants (DARM melding) flow through the
    #: timing simulator, bench gate and sweep service unchanged.
    staticlib_pass: Optional[Callable[[Program], Program]] = field(
        default=None, compare=False
    )


class VariantRegistry:
    """Ordered name -> :class:`Variant` registry."""

    def __init__(self):
        self._variants: Dict[str, Variant] = {}

    def register(self, variant: Variant, replace: bool = False) -> Variant:
        if variant.name in self._variants and not replace:
            raise ValueError(f"variant {variant.name!r} is already registered")
        self._variants[variant.name] = variant
        return variant

    def unregister(self, name: str) -> None:
        self._variants.pop(name, None)

    def get(self, name: str) -> Variant:
        try:
            return self._variants[name]
        except KeyError:
            raise KeyError(
                f"unknown configuration {name!r}; known: {self.names()}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Every registered variant name, in registration order."""
        return tuple(self._variants)

    def by_tag(self, tag: str) -> Tuple[str, ...]:
        """Names carrying ``tag``, in registration order (which is the
        paper's legend order for the default registrations)."""
        return tuple(n for n, v in self._variants.items() if tag in v.tags)

    def __contains__(self, name: str) -> bool:
        return name in self._variants

    def __iter__(self) -> Iterator[Variant]:
        return iter(self._variants.values())

    def __len__(self) -> int:
        return len(self._variants)


# ---------------------------------------------------------------------------
# Default registrations (the paper's configurations)
# ---------------------------------------------------------------------------


def _no_frontend(runner, darsie):
    return None


def _uv_frontend(runner, darsie):
    analysis = runner.analysis
    return lambda: UVFrontend(analysis)


def _dac_frontend(runner, darsie):
    profile = runner.dac_profile()
    return lambda: DacIdealFrontend(profile)


def _darsie_frontend(runner, darsie):
    analysis = runner.analysis
    return lambda: DarsieFrontend(analysis, darsie)


def _silicon_sync_frontend(runner, darsie):
    return SiliconSyncFrontend


def _dual_issue_frontend(runner, darsie):
    return DualIssueFrontend


#: The process-wide registry all layers consult.
REGISTRY = VariantRegistry()

#: The one run name that is not a variant: the traced functional run
#: and its analyses behind Figures 1 and 2, which simulate no timing.
FUNCTIONAL = "FUNCTIONAL"


def register_default_variants(registry: VariantRegistry = REGISTRY) -> None:
    """Register the paper's eight configurations (idempotent-by-error:
    call once per registry)."""
    registry.register(Variant(
        name="BASE",
        make_frontend=_no_frontend,
        tags=("fig8",),
        description="unmodified baseline GPU",
    ))
    registry.register(Variant(
        name="UV",
        make_frontend=_uv_frontend,
        tags=("fig8", "reduction"),
        description="uniform-vector execution elimination at issue",
    ))
    registry.register(Variant(
        name="DAC-IDEAL",
        make_frontend=_dac_frontend,
        tags=("fig8", "reduction"),
        description="idealized decoupled affine computation (oracle profile)",
    ))
    registry.register(Variant(
        name="DARSIE",
        make_frontend=_darsie_frontend,
        tags=("fig8", "reduction", "fig12"),
        darsie_defaults=DarsieConfig(),
        description="the paper's mechanism, default knobs",
    ))
    registry.register(Variant(
        name="DARSIE-IGNORE-STORE",
        make_frontend=_darsie_frontend,
        tags=("fig8",),
        darsie_defaults=DarsieConfig(ignore_store=True),
        description="keep load entries across stores (Figure 8)",
    ))
    registry.register(Variant(
        name="DARSIE-NO-CF-SYNC",
        make_frontend=_darsie_frontend,
        tags=("fig12",),
        darsie_defaults=DarsieConfig(no_cf_sync=True),
        description="no TB barrier at branches (Figure 12)",
    ))
    registry.register(Variant(
        name="DARSIE-SYNC-ON-WRITE",
        make_frontend=_darsie_frontend,
        darsie_defaults=DarsieConfig(sync_on_write=True),
        description="synchronize the TB on every redundant write "
                    "(Section 4.1, rejected option 1)",
    ))
    registry.register(Variant(
        name="SILICON-SYNC",
        make_frontend=_silicon_sync_frontend,
        tags=("fig12",),
        description="hardware-synchronization cost bound (Figure 12)",
    ))
    registry.register(Variant(
        name="DUAL-ISSUE",
        make_frontend=_dual_issue_frontend,
        description="baseline with dual-issue warp schedulers (swaps in "
                    "an alternative IssueStage via the staged pipeline)",
    ))
    registry.register(Variant(
        name="DARM",
        make_frontend=_no_frontend,
        tags=("technique",),
        description="DARM control-flow melding, default profitability "
                    "threshold (compare-techniques)",
        staticlib_pass=darm_pass,
    ))
    registry.register(Variant(
        name="DARM-IDEAL",
        make_frontend=_no_frontend,
        tags=("technique",),
        description="control-flow melding of every legal divergent "
                    "region, no profitability bar",
        staticlib_pass=darm_ideal_pass,
    ))


register_default_variants()
