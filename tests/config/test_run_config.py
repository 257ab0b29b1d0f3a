"""The canonical-serialization and override contracts of the config spine."""

import json
import re
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    DEFAULT_GPU,
    ConfigError,
    RunConfig,
    apply_overrides,
    config_fields,
    flat_from_dict,
    flat_to_dict,
    gpu_from_dict,
    gpu_to_dict,
    parse_overrides,
    valid_override_paths,
)
from repro.core import DarsieConfig
from repro.timing import GPUConfig, small_config
from repro.variants import REGISTRY
from repro.workloads import ALL_ABBRS

#: the variants that take DARSIE knobs, and the rest
DARSIE_FAMILY = tuple(v.name for v in REGISTRY if v.darsie_defaults is not None)
NO_KNOBS = tuple(v.name for v in REGISTRY if v.darsie_defaults is None)


# ---------------------------------------------------------------------------
# Canonical to_dict / from_dict
# ---------------------------------------------------------------------------


class TestCanonicalForm:
    def test_identity_fields_always_present(self):
        d = RunConfig(abbr="MM").to_dict()
        assert d == {"abbr": "MM", "variant": "BASE", "scale": "small"}

    def test_defaults_are_elided(self):
        cfg = RunConfig(abbr="MM", gpu=DEFAULT_GPU)
        d = cfg.to_dict()
        assert "gpu" not in d and "darsie" not in d

    def test_gpu_serializes_as_diff(self):
        cfg = RunConfig(abbr="MM", gpu=small_config(num_sms=1, l1_lines=512))
        assert cfg.to_dict()["gpu"] == {"l1_lines": 512}

    @pytest.mark.parametrize("variant", DARSIE_FAMILY)
    def test_knobs_equal_to_the_preset_are_the_preset(self, variant):
        """One simulation, one spelling: a variant's own preset stated
        as knobs normalizes away."""
        implicit = RunConfig(abbr="MM", variant=variant)
        explicit = RunConfig(abbr="MM", variant=variant,
                             darsie=REGISTRY.get(variant).darsie_defaults)
        assert explicit == implicit and explicit.darsie is None
        assert explicit.canonical_json() == implicit.canonical_json()
        assert explicit.label == implicit.label == f"MM/{variant}@small"

    def test_same_run_iff_same_canonical_dict(self):
        a = RunConfig(abbr="MM")                      # default gpu elided
        b = RunConfig(abbr="MM", gpu=small_config(num_sms=1))
        assert a.gpu == b.gpu
        assert a.canonical_json() == b.canonical_json()
        c = RunConfig(abbr="MM", gpu=small_config(num_sms=2))
        assert a.canonical_json() != c.canonical_json()

    def test_canonical_json_is_stable(self):
        cfg = RunConfig(abbr="MM", variant="DARSIE", darsie=DarsieConfig(skip_ports=4))
        assert json.loads(cfg.canonical_json()) == cfg.to_dict()
        assert cfg.canonical_json() == cfg.canonical_json()


class TestKnobsRefineAVariant:
    def test_knobs_are_stated_against_the_variant_preset(self):
        cfg = RunConfig(abbr="MM", variant="DARSIE-NO-CF-SYNC",
                        darsie=DarsieConfig(no_cf_sync=True, skip_ports=4))
        assert cfg.to_dict()["darsie"] == {"skip_ports": 4}
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("variant", NO_KNOBS)
    def test_a_variant_without_a_preset_rejects_knobs(self, variant):
        message = (f"^variant '{variant}' takes no darsie.\\* knobs; "
                   f"the variants that do: {', '.join(DARSIE_FAMILY)}$")
        with pytest.raises(ConfigError, match=message):
            RunConfig(abbr="MM", variant=variant, darsie=DarsieConfig(skip_ports=4))
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict({"abbr": "MM", "variant": variant, "darsie": {}})

    def test_knobs_on_an_unknown_variant_name_it(self):
        with pytest.raises(ConfigError, match="^unknown configuration 'NOPE'"):
            RunConfig(abbr="MM", variant="NOPE", darsie=DarsieConfig())

    def test_label_states_every_non_default_nested_field(self):
        cfg = RunConfig(abbr="MM", variant="DARSIE", scale="tiny",
                        gpu=small_config(num_sms=1, l1_lines=512),
                        darsie=DarsieConfig(skip_ports=4))
        assert cfg.label == "MM/DARSIE@tiny darsie.skip_ports=4 gpu.l1_lines=512"


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key.*valid fields"):
            RunConfig.from_dict({"abbr": "MM", "gpus": {}})
        # a run has no execution-policy block
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['policy'\]"):
            RunConfig.from_dict({"abbr": "MM", "policy": {"timeout_s": 60.0}})

    def test_there_is_no_energy_model_field(self):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['energy'\]"):
            RunConfig.from_dict({"abbr": "MM", "energy": "pascal"})

    def test_unknown_nested_key_lists_valid_fields(self):
        with pytest.raises(ConfigError, match="l1_lines"):
            RunConfig.from_dict({"abbr": "MM", "gpu": {"l1_linez": 4}})

    def test_missing_abbr(self):
        with pytest.raises(ConfigError, match="abbr"):
            RunConfig.from_dict({"variant": "BASE"})

    def test_type_mismatch_int(self):
        with pytest.raises(ConfigError, match="expected int"):
            RunConfig.from_dict({"abbr": "MM", "gpu": {"l1_lines": "512"}})

    def test_type_mismatch_bool_is_not_int(self):
        with pytest.raises(ConfigError, match="expected int"):
            RunConfig.from_dict({"abbr": "MM", "gpu": {"l1_lines": True}})

    def test_type_mismatch_int_is_not_bool(self):
        with pytest.raises(ConfigError, match="expected bool"):
            RunConfig.from_dict({"abbr": "MM", "variant": "DARSIE",
                                 "darsie": {"ignore_store": 1}})

    def test_non_mapping(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            RunConfig.from_dict({"abbr": "MM", "gpu": [1, 2]})


def _count_paths():
    """Dotted path of every int and Optional[int] field, with its floor:
    0 for a latency, 1 for everything else."""
    paths = []
    for root, cls in (("gpu", GPUConfig), ("darsie", DarsieConfig)):
        for name, typ in config_fields(cls).items():
            if typ in (int, Optional[int]):
                paths.append((f"{root}.{name}", 0 if name.endswith("_latency") else 1))
    return paths


class TestConfigsDescribeAMachine:
    """Every count is at least 1 and every latency at least 0, checked
    when a GPU or DARSIE config is built; a port count may also be
    ``None`` (ideal)."""

    @pytest.mark.parametrize("path,floor", _count_paths(),
                             ids=[path for path, _ in _count_paths()])
    def test_below_the_floor_is_rejected_with_its_path(self, path, floor):
        darsie = RunConfig(abbr="MM", variant="DARSIE")
        assert apply_overrides(darsie, {path: floor})
        message = f"^{re.escape(path)}: expected >= {floor}, got {floor - 1}$"
        with pytest.raises(ConfigError, match=message):
            apply_overrides(darsie, {path: floor - 1})

    def test_from_dict_applies_the_same_rule(self):
        with pytest.raises(ConfigError, match="^gpu.num_sms: expected >= 1"):
            RunConfig.from_dict({"abbr": "MM", "gpu": {"num_sms": 0}})
        with pytest.raises(ConfigError, match="^darsie.skip_ports: expected >= 1"):
            RunConfig.from_dict({"abbr": "MM", "variant": "DARSIE",
                                 "darsie": {"skip_ports": 0}})

    def test_ports_may_be_ideal(self):
        gpu = small_config(rename_ports=None, version_table_ports=None)
        assert gpu.rename_ports is gpu.version_table_ports is None

    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_known_scheduler_policies(self, policy):
        assert small_config(scheduler_policy=policy).scheduler_policy == policy

    @pytest.mark.parametrize("policy", ["fifo", "GTO", ""])
    def test_unknown_scheduler_policy_is_rejected(self, policy):
        with pytest.raises(ConfigError, match="^gpu.scheduler_policy: expected one of"):
            small_config(scheduler_policy=policy)


# ---------------------------------------------------------------------------
# Property tests: round trip over randomized configs
# ---------------------------------------------------------------------------

_GPU_INT_FIELDS = sorted(
    name for name, typ in config_fields(GPUConfig).items() if typ is int
)
_DARSIE_FIELDS = config_fields(DarsieConfig)


def _gpu_strategy():
    return st.dictionaries(
        st.sampled_from(_GPU_INT_FIELDS), st.integers(1, 4096), max_size=4
    ).map(lambda diff: gpu_from_dict(diff))


def _darsie_strategy():
    return st.dictionaries(
        st.sampled_from(sorted(_DARSIE_FIELDS)),
        st.integers(1, 64),
        max_size=3,
    ).map(
        lambda d: DarsieConfig(
            **{k: (v % 2 == 0) if _DARSIE_FIELDS[k] is bool else v for k, v in d.items()}
        )
    )


def _run_config_of(variant):
    """Configs of ``variant``; knobs only where the variant takes them."""
    knobs = st.one_of(st.none(), _darsie_strategy()) if variant in DARSIE_FAMILY else st.none()
    return st.builds(
        RunConfig,
        abbr=st.sampled_from(ALL_ABBRS),
        variant=st.just(variant),
        scale=st.sampled_from(("tiny", "small", "medium")),
        gpu=_gpu_strategy(),
        darsie=knobs,
    )


_RUN_CONFIGS = st.sampled_from(
    ("BASE", "UV", "DARSIE", "DARSIE-IGNORE-STORE", "DARSIE-NO-CF-SYNC")
).flatmap(_run_config_of)


@settings(max_examples=200, deadline=None)
@given(cfg=_RUN_CONFIGS)
def test_round_trip_is_identity(cfg):
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


@settings(max_examples=200, deadline=None)
@given(cfg=_RUN_CONFIGS, other=_RUN_CONFIGS)
def test_canonical_dict_equality_is_run_identity(cfg, other):
    """Two configs name the same run iff their canonical JSON agrees."""
    assert (cfg.canonical_json() == other.canonical_json()) == (cfg == other)


@settings(max_examples=100, deadline=None)
@given(gpu=_gpu_strategy())
def test_gpu_diff_round_trip(gpu):
    assert gpu_from_dict(gpu_to_dict(gpu)) == gpu


@settings(max_examples=100, deadline=None)
@given(darsie=_darsie_strategy(), variant=st.sampled_from(DARSIE_FAMILY))
def test_darsie_diff_round_trip(darsie, variant):
    """Knobs serialize as their diff against the variant's preset."""
    preset = REGISTRY.get(variant).darsie_defaults
    assert flat_from_dict(DarsieConfig, flat_to_dict(darsie, preset), preset, "darsie") == darsie


# ---------------------------------------------------------------------------
# Dotted-path overrides
# ---------------------------------------------------------------------------


class TestOverrides:
    BASE = RunConfig(abbr="MM")
    DARSIE = RunConfig(abbr="MM", variant="DARSIE")

    def test_parse_pairs(self):
        assert parse_overrides(["gpu.l1_lines=512", "scale=tiny"]) == {
            "gpu.l1_lines": "512",
            "scale": "tiny",
        }

    def test_parse_rejects_malformed(self):
        with pytest.raises(ConfigError, match="PATH=VALUE"):
            parse_overrides(["gpu.l1_lines"])
        with pytest.raises(ConfigError, match="PATH=VALUE"):
            parse_overrides(["=512"])

    def test_gpu_int_override_from_string(self):
        cfg = apply_overrides(self.BASE, {"gpu.l1_lines": "512"})
        assert cfg.gpu.l1_lines == 512
        assert self.BASE.gpu.l1_lines != 512  # original untouched

    def test_int_override_accepts_hex(self):
        cfg = apply_overrides(self.BASE, {"gpu.l1_lines": "0x100"})
        assert cfg.gpu.l1_lines == 256

    def test_optional_int_override_from_string(self):
        cfg = apply_overrides(self.BASE, {"gpu.rename_ports": "2"})
        assert cfg.gpu.rename_ports == 2

    @pytest.mark.parametrize("text", ["none", "None", "NULL", " none "])
    def test_optional_int_override_back_to_ideal(self, text):
        limited = apply_overrides(self.BASE, {"gpu.version_table_ports": "4"})
        assert limited.gpu.version_table_ports == 4
        ideal = apply_overrides(limited, {"gpu.version_table_ports": text})
        assert ideal.gpu.version_table_ports is None

    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("1", True), ("yes", True), ("ON", True),
        ("false", False), ("0", False), ("no", False), ("off", False),
    ])
    def test_bool_override_spellings(self, text, expected):
        cfg = apply_overrides(self.DARSIE, {"darsie.sync_on_write": text})
        assert (cfg.darsie or DarsieConfig()).sync_on_write is expected

    def test_bool_override_rejects_garbage(self):
        with pytest.raises(ConfigError, match="as bool"):
            apply_overrides(self.DARSIE, {"darsie.sync_on_write": "maybe"})

    def test_int_override_rejects_garbage(self):
        with pytest.raises(ConfigError, match="as int"):
            apply_overrides(self.BASE, {"gpu.l1_lines": "many"})

    @pytest.mark.parametrize("variant", DARSIE_FAMILY)
    def test_darsie_override_starts_from_the_variant_preset(self, variant):
        cfg = apply_overrides(RunConfig(abbr="MM", variant=variant), {"darsie.skip_ports": 4})
        preset = REGISTRY.get(variant).darsie_defaults
        assert cfg.darsie == DarsieConfig(**dict(vars(preset), skip_ports=4))
        assert cfg.label == f"MM/{variant}@small darsie.skip_ports=4"

    def test_darsie_override_layers_on_existing_knobs(self):
        base = RunConfig(abbr="MM", variant="DARSIE", darsie=DarsieConfig(ignore_store=True))
        cfg = apply_overrides(base, {"darsie.skip_ports": 4})
        assert cfg.darsie == DarsieConfig(ignore_store=True, skip_ports=4)

    def test_darsie_override_refines_the_variant_however_ordered(self):
        cfg = apply_overrides(self.BASE, {"darsie.skip_ports": 4,
                                          "variant": "DARSIE-NO-CF-SYNC"})
        assert cfg.darsie == DarsieConfig(no_cf_sync=True, skip_ports=4)

    def test_darsie_override_at_the_preset_is_the_preset(self):
        assert apply_overrides(self.DARSIE, {"darsie.skip_ports": 2}) == self.DARSIE

    def test_darsie_override_needs_a_variant_that_takes_knobs(self):
        with pytest.raises(ConfigError, match="'BASE' takes no darsie"):
            apply_overrides(self.BASE, {"darsie.skip_ports": 4})

    def test_top_level_override(self):
        cfg = apply_overrides(self.BASE, {"scale": "tiny", "variant": "UV"})
        assert (cfg.scale, cfg.variant) == ("tiny", "UV")

    def test_already_typed_values_pass_through(self):
        cfg = apply_overrides(self.DARSIE, {"gpu.l1_lines": 512,
                                            "darsie.no_cf_sync": True})
        assert cfg.gpu.l1_lines == 512 and cfg.darsie.no_cf_sync is True

    def test_bad_path_lists_valid_fields(self):
        with pytest.raises(ConfigError, match="l1_lines"):
            apply_overrides(self.BASE, {"gpu.l1_linez": 4})
        with pytest.raises(ConfigError, match="valid paths"):
            apply_overrides(self.BASE, {"cache.lines": 4})
        with pytest.raises(ConfigError, match="valid paths"):
            apply_overrides(self.BASE, {"gpu": 4})  # root without a leaf

    def test_valid_override_paths_cover_all_fields(self):
        paths = valid_override_paths()
        assert "gpu.l1_lines" in paths
        assert "darsie.sync_on_write" in paths
        assert "scale" in paths and "variant" in paths
        assert "energy" not in paths
        for name in config_fields(GPUConfig):
            assert f"gpu.{name}" in paths

    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(1, 10000))
    def test_override_then_round_trip(self, value):
        cfg = apply_overrides(RunConfig(abbr="MM"), {"gpu.l1_lines": str(value)})
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
