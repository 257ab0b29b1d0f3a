"""The typed run-configuration spine.

One run of the reproduction is fully described by a :class:`RunConfig`:
which workload at which scale, under which named variant, on which
:class:`~repro.timing.GPUConfig`, with which DARSIE knobs.  Every layer
that needs to name a run — the sweep and its cache, the ``BENCH_*.json``
baselines, the golden store, the CLI — shares this one description
instead of re-plumbing strings and tuples.

Canonical serialization
-----------------------
``RunConfig.to_dict`` emits a *canonical* plain-data form: identity
fields (``abbr``/``variant``/``scale``) always appear, nested configs
appear as the fields that differ from their defaults, and everything
equal to a default is elided.  Two configs describe the same run iff
their canonical dicts are equal, which is exactly the property the
sweep-cache fingerprint relies on.  ``from_dict`` is the strict
inverse: unknown keys and type mismatches raise :class:`ConfigError`
(naming the valid fields), and ``from_dict(to_dict(c)) == c`` for every
config — the round-trip contract the property tests pin down.

Dotted-path overrides
---------------------
:func:`apply_overrides` updates a config through dotted paths —
``gpu.l1_lines=512``, ``darsie.sync_on_write=true``, ``scale=tiny`` —
with values coerced to the target field's type.  This is what
``python -m repro ... --set PATH=VALUE`` and the generalized
``ablation_sweep`` ride on: any axis of the spine is sweepable without
writing a new driver.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.core.darsie import DarsieConfig
from repro.timing.config import ConfigError, GPUConfig, small_config

#: The GPU every run uses unless told otherwise (mirrors
#: :class:`~repro.harness.runner.WorkloadRunner`'s historical default).
DEFAULT_GPU = small_config(num_sms=1)


# ---------------------------------------------------------------------------
# Flat-dataclass (de)serialization helpers
# ---------------------------------------------------------------------------

_hints_memo: Dict[type, Dict[str, type]] = {}


def config_fields(cls: type) -> Dict[str, type]:
    """Resolved ``{field name: type}`` for a flat config dataclass."""
    if cls not in _hints_memo:
        hints = typing.get_type_hints(cls)
        _hints_memo[cls] = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    return _hints_memo[cls]


def _unwrap_optional(typ: type) -> Tuple[type, bool]:
    """``Optional[T]`` -> ``(T, True)``; anything else -> ``(typ, False)``."""
    if typing.get_origin(typ) is typing.Union:
        args = [a for a in typing.get_args(typ) if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return typ, False


def _check_value(value: Any, typ: type, path: str) -> Any:
    """Type-check one already-parsed value (bool is never an int here)."""
    typ, optional = _unwrap_optional(typ)
    if optional and value is None:
        return None
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected bool, got {value!r}")
        return value
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected int, got {value!r}")
        return value
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected float, got {value!r}")
        return float(value)
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected str, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported config field type {typ!r}")


def _coerce(value: Any, typ: type, path: str) -> Any:
    """Coerce an override value (possibly a CLI string) to a field type."""
    inner, optional = _unwrap_optional(typ)
    if optional:
        if value is None or (isinstance(value, str) and value.strip().lower() in ("none", "null")):
            return None
        typ = inner
    if not isinstance(value, str) or typ is str:
        return _check_value(value, typ, path)
    text = value.strip()
    if typ is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{path}: cannot parse {value!r} as bool "
                          "(use true/false, 1/0, yes/no, on/off)")
    try:
        if typ is int:
            return int(text, 0)
        if typ is float:
            return float(text)
    except ValueError:
        raise ConfigError(
            f"{path}: cannot parse {value!r} as {typ.__name__}"
        ) from None
    raise ConfigError(f"{path}: unsupported config field type {typ!r}")


def flat_to_dict(obj: Any, defaults: Any) -> Dict[str, Any]:
    """Canonical dict of ``obj``: only the fields differing from ``defaults``."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value != getattr(defaults, f.name):
            out[f.name] = value
    return out


def flat_from_dict(cls: type, data: Any, defaults: Any, path: str) -> Any:
    """Inverse of :func:`flat_to_dict`; rejects unknown keys and bad types."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {data!r}")
    hints = config_fields(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {sorted(unknown)}; "
            f"valid fields: {sorted(hints)}"
        )
    kwargs = {
        name: _check_value(value, hints[name], f"{path}.{name}")
        for name, value in data.items()
    }
    return replace(defaults, **kwargs)


def gpu_to_dict(gpu: GPUConfig) -> Dict[str, Any]:
    """Canonical (default-elided) dict form of a :class:`GPUConfig`."""
    return flat_to_dict(gpu, DEFAULT_GPU)


def gpu_from_dict(data: Mapping) -> GPUConfig:
    return flat_from_dict(GPUConfig, data, DEFAULT_GPU, "gpu")


def darsie_to_dict(cfg: DarsieConfig) -> Dict[str, Any]:
    return flat_to_dict(cfg, DarsieConfig())


def darsie_from_dict(data: Mapping) -> DarsieConfig:
    return flat_from_dict(DarsieConfig, data, DarsieConfig(), "darsie")


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One timing run, fully described by typed, serializable data."""

    #: Table 1 workload abbreviation (e.g. ``"MM"``)
    abbr: str
    #: variant name in the :data:`repro.variants.REGISTRY` (or an ad-hoc
    #: label when :attr:`darsie` carries explicit knobs)
    variant: str = "BASE"
    #: workload problem size (:data:`repro.workloads.SCALES`)
    scale: str = "small"
    #: simulated GPU (defaults to the historical 1-SM experiment config)
    gpu: GPUConfig = DEFAULT_GPU
    #: explicit DARSIE knobs; ``None`` means "the variant's defaults"
    darsie: Optional[DarsieConfig] = None

    _TOP_KEYS = ("abbr", "variant", "scale", "gpu", "darsie")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form: identity always, defaults elided."""
        out: Dict[str, Any] = {
            "abbr": self.abbr,
            "variant": self.variant,
            "scale": self.scale,
        }
        gpu = gpu_to_dict(self.gpu)
        if gpu:
            out["gpu"] = gpu
        if self.darsie is not None:
            out["darsie"] = darsie_to_dict(self.darsie)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        """Strict inverse of :meth:`to_dict`."""
        if not isinstance(data, Mapping):
            raise ConfigError(f"run config: expected a mapping, got {data!r}")
        unknown = set(data) - set(cls._TOP_KEYS)
        if unknown:
            raise ConfigError(
                f"run config: unknown key(s) {sorted(unknown)}; "
                f"valid fields: {list(cls._TOP_KEYS)}"
            )
        if "abbr" not in data:
            raise ConfigError("run config: missing required key 'abbr'")
        kwargs: Dict[str, Any] = {}
        for name in ("abbr", "variant", "scale"):
            if name in data:
                kwargs[name] = _check_value(data[name], str, name)
        if "gpu" in data:
            kwargs["gpu"] = gpu_from_dict(data["gpu"])
        if "darsie" in data:
            kwargs["darsie"] = darsie_from_dict(data["darsie"])
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """The canonical serialization as a stable JSON string — the
        single identity the sweep cache fingerprints."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def label(self) -> str:
        return f"{self.abbr}/{self.variant}@{self.scale}"

    @property
    def config_name(self) -> str:
        """The variant under its old sweep-descriptor name.  Read only by
        the benchmark scripts in ``perf/``; nothing in the package uses it."""
        return self.variant


# ---------------------------------------------------------------------------
# Dotted-path overrides
# ---------------------------------------------------------------------------

#: top-level RunConfig fields assignable via overrides
_TOP_OVERRIDES = ("abbr", "variant", "scale")

#: nested config roots addressable as ``root.field``
_NESTED_ROOTS: Dict[str, type] = {
    "gpu": GPUConfig,
    "darsie": DarsieConfig,
}


def valid_override_paths() -> Tuple[str, ...]:
    """Every dotted path :func:`apply_overrides` understands."""
    paths = list(_TOP_OVERRIDES)
    paths += [f"gpu.{name}" for name in config_fields(GPUConfig)]
    paths += [f"darsie.{name}" for name in config_fields(DarsieConfig)]
    return tuple(paths)


def parse_overrides(pairs: Iterable[str]) -> Dict[str, str]:
    """Parse ``PATH=VALUE`` strings (CLI ``--set``) into an override map."""
    out: Dict[str, str] = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(
                f"override {item!r} must have the form PATH=VALUE "
                "(e.g. gpu.l1_lines=512)"
            )
        out[key] = value.strip()
    return out


def apply_overrides(cfg: RunConfig, overrides: Mapping[str, Any]) -> RunConfig:
    """A copy of ``cfg`` with every dotted-path override applied.

    Values may be CLI strings (coerced to the field's type) or already
    typed.  Unknown paths raise :class:`ConfigError` naming the valid
    fields of the root they tried to address.
    """
    for path, raw in overrides.items():
        root, _, leaf = path.partition(".")
        if root in _NESTED_ROOTS and leaf:
            hints = config_fields(_NESTED_ROOTS[root])
            if leaf not in hints:
                raise ConfigError(
                    f"unknown override path {path!r}; "
                    f"valid {root} fields: {sorted(hints)}"
                )
            value = _coerce(raw, hints[leaf], path)
            if root == "gpu":
                cfg = replace(cfg, gpu=replace(cfg.gpu, **{leaf: value}))
            else:
                base = cfg.darsie if cfg.darsie is not None else DarsieConfig()
                cfg = replace(cfg, darsie=replace(base, **{leaf: value}))
        elif not leaf and root in _TOP_OVERRIDES:
            cfg = replace(cfg, **{root: _coerce(raw, str, root)})
        else:
            raise ConfigError(
                f"unknown override path {path!r}; valid paths: "
                f"{', '.join(_TOP_OVERRIDES)}, gpu.<field>, darsie.<field> "
                f"(gpu fields: {sorted(config_fields(GPUConfig))}; "
                f"darsie fields: {sorted(config_fields(DarsieConfig))})"
            )
    return cfg
