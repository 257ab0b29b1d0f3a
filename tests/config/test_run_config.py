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
    darsie_from_dict,
    darsie_to_dict,
    gpu_from_dict,
    gpu_to_dict,
    parse_overrides,
    valid_override_paths,
)
from repro.core import DarsieConfig
from repro.timing import GPUConfig, small_config
from repro.workloads import ALL_ABBRS


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

    def test_explicit_default_darsie_is_not_none(self):
        """darsie=None (variant defaults) and darsie=DarsieConfig()
        (explicit paper knobs) are different runs and serialize apart."""
        implicit = RunConfig(abbr="MM", variant="DARSIE")
        explicit = RunConfig(abbr="MM", variant="DARSIE", darsie=DarsieConfig())
        assert "darsie" not in implicit.to_dict()
        assert explicit.to_dict()["darsie"] == {}
        assert RunConfig.from_dict(implicit.to_dict()).darsie is None
        assert RunConfig.from_dict(explicit.to_dict()).darsie == DarsieConfig()

    def test_same_run_iff_same_canonical_dict(self):
        a = RunConfig(abbr="MM")                      # default gpu elided
        b = RunConfig(abbr="MM", gpu=small_config(num_sms=1))
        assert a.gpu == b.gpu
        assert a.canonical_json() == b.canonical_json()
        c = RunConfig(abbr="MM", gpu=small_config(num_sms=2))
        assert a.canonical_json() != c.canonical_json()

    def test_canonical_json_is_stable(self):
        cfg = RunConfig(abbr="MM", darsie=DarsieConfig(skip_ports=4))
        assert json.loads(cfg.canonical_json()) == cfg.to_dict()
        assert cfg.canonical_json() == cfg.canonical_json()


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
            RunConfig.from_dict({"abbr": "MM", "darsie": {"ignore_store": 1}})

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
        assert apply_overrides(RunConfig(abbr="MM"), {path: floor})
        message = f"^{re.escape(path)}: expected >= {floor}, got {floor - 1}$"
        with pytest.raises(ConfigError, match=message):
            apply_overrides(RunConfig(abbr="MM"), {path: floor - 1})

    def test_from_dict_applies_the_same_rule(self):
        with pytest.raises(ConfigError, match="^gpu.num_sms: expected >= 1"):
            RunConfig.from_dict({"abbr": "MM", "gpu": {"num_sms": 0}})
        with pytest.raises(ConfigError, match="^darsie.skip_ports: expected >= 1"):
            RunConfig.from_dict({"abbr": "MM", "darsie": {"skip_ports": 0}})

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
        lambda d: darsie_from_dict(
            {k: (v % 2 == 0) if _DARSIE_FIELDS[k] is bool else v for k, v in d.items()}
        )
    )


_RUN_CONFIGS = st.builds(
    RunConfig,
    abbr=st.sampled_from(ALL_ABBRS),
    variant=st.sampled_from(("BASE", "UV", "DARSIE", "DARSIE-IGNORE-STORE")),
    scale=st.sampled_from(("tiny", "small", "medium")),
    gpu=_gpu_strategy(),
    darsie=st.one_of(st.none(), _darsie_strategy()),
)


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
@given(darsie=_darsie_strategy())
def test_darsie_diff_round_trip(darsie):
    assert darsie_from_dict(darsie_to_dict(darsie)) == darsie


# ---------------------------------------------------------------------------
# Dotted-path overrides
# ---------------------------------------------------------------------------


class TestOverrides:
    BASE = RunConfig(abbr="MM")

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
        cfg = apply_overrides(self.BASE, {"darsie.sync_on_write": text})
        assert cfg.darsie.sync_on_write is expected

    def test_bool_override_rejects_garbage(self):
        with pytest.raises(ConfigError, match="as bool"):
            apply_overrides(self.BASE, {"darsie.sync_on_write": "maybe"})

    def test_int_override_rejects_garbage(self):
        with pytest.raises(ConfigError, match="as int"):
            apply_overrides(self.BASE, {"gpu.l1_lines": "many"})

    def test_darsie_override_starts_from_paper_defaults(self):
        cfg = apply_overrides(self.BASE, {"darsie.skip_ports": 4})
        assert cfg.darsie == DarsieConfig(skip_ports=4)

    def test_darsie_override_layers_on_existing_knobs(self):
        base = RunConfig(abbr="MM", darsie=DarsieConfig(ignore_store=True))
        cfg = apply_overrides(base, {"darsie.skip_ports": 4})
        assert cfg.darsie == DarsieConfig(ignore_store=True, skip_ports=4)

    def test_top_level_override(self):
        cfg = apply_overrides(self.BASE, {"scale": "tiny", "variant": "UV"})
        assert (cfg.scale, cfg.variant) == ("tiny", "UV")

    def test_already_typed_values_pass_through(self):
        cfg = apply_overrides(self.BASE, {"gpu.l1_lines": 512,
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
