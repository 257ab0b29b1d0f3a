"""The golden store: its strict loader, its diff, its matrix and its command."""

import json
import os

import pytest

from repro.__main__ import main
from repro.config import RunConfig
from repro.harness import golden
from repro.timing.stats import EnergyEvent, SimStats
from repro.variants import REGISTRY, Variant

STORE = os.path.join(os.path.dirname(__file__), "..", "timing", "data", "golden.json")

RUN = {"abbr": "MM", "variant": "BASE", "scale": "tiny"}


def key(run):
    return json.dumps(run, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def store():
    return golden.load(STORE)


class TestLoader:
    @pytest.mark.parametrize("run,problem", [
        (dict(RUN, variant="NOPE"), "unknown variant 'NOPE'"),
        (dict(RUN, abbr="NOPE"), "unknown app 'NOPE'"),
        (dict(RUN, gpu={}), "not canonical"),
        (dict(RUN, gpu={"num_sms": 1}), "not canonical"),
        ({"abbr": "MM", "scale": "tiny"}, "not canonical"),
        (dict(RUN, gpu={"scheduler_policy": "fifo"}), "gpu.scheduler_policy"),
        (dict(RUN, gpu={"warp_speed": 9}), "unknown key"),
        (dict(RUN, variant="DARSIE", darsie={}), "not canonical"),
        (dict(RUN, variant="DARSIE-IGNORE-STORE", darsie={"ignore_store": True}),
         "not canonical"),
        (dict(RUN, darsie={"skip_ports": 4}), "'BASE' takes no darsie.* knobs"),
    ], ids=["variant", "app", "empty-gpu", "default-gpu-field", "no-variant",
            "bad-gpu-value", "unknown-gpu-field", "empty-darsie", "preset-darsie",
            "knobs-on-base"])
    def test_rejects_a_bad_run_naming_the_entry(self, store, tmp_path, run, problem):
        path = self._write(tmp_path, run, store[key(RUN)])
        with pytest.raises(golden.StoreError) as exc_info:
            golden.load(path)
        assert key(run) in str(exc_info.value)
        assert problem in str(exc_info.value)

    def test_rejects_a_missing_stats_field(self, store, tmp_path):
        stats = {k: v for k, v in store[key(RUN)].items() if k != "l1_hits"}
        with pytest.raises(golden.StoreError, match=r"missing \['l1_hits'\]") as exc_info:
            golden.load(self._write(tmp_path, RUN, stats))
        assert key(RUN) in str(exc_info.value)

    def test_rejects_an_unknown_stats_field(self, store, tmp_path):
        stats = dict(store[key(RUN)], stall_cycles=0)
        with pytest.raises(golden.StoreError, match=r"unknown \['stall_cycles'\]"):
            golden.load(self._write(tmp_path, RUN, stats))

    def test_rejects_an_entry_without_its_event_order(self, store, tmp_path):
        stats = {k: v for k, v in store[key(RUN)].items() if k != golden.ORDER_FIELD}
        with pytest.raises(golden.StoreError, match=r"missing \['energy_event_order'\]"):
            golden.load(self._write(tmp_path, RUN, stats))

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_rejects_an_event_order_that_is_not_its_events(self, store, tmp_path, change):
        stats = dict(store[key(RUN)])
        order = stats[golden.ORDER_FIELD]
        stats[golden.ORDER_FIELD] = order[1:] if change == "drop" else order + ["sfu_op"]
        assert "sfu_op" not in store[key(RUN)]["energy_events"]
        with pytest.raises(golden.StoreError,
                           match="energy_event_order does not list exactly the energy events"):
            golden.load(self._write(tmp_path, RUN, stats))

    def test_accepts_a_well_formed_entry(self, store, tmp_path):
        assert golden.load(self._write(tmp_path, RUN, store[key(RUN)])) == {
            key(RUN): store[key(RUN)]
        }

    @staticmethod
    def _write(tmp_path, run, stats):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps({"entries": [{"run": run, "stats": stats}]}))
        return str(path)


class TestDiff:
    STATS = {"cycles": 100, "l1_hits": 5, "l1_misses": 1}

    def test_reports_moved_added_and_removed_specs(self):
        old = {key(RUN): self.STATS, key(dict(RUN, variant="UV")): self.STATS}
        new = {
            key(RUN): dict(self.STATS, cycles=90, l1_hits=6),
            key(dict(RUN, variant="DARSIE")): self.STATS,
        }
        assert golden.diff(old, new) == [
            "moved   MM/BASE@tiny: cycles 100 -> 90 (-10); fields cycles, l1_hits",
            "added   MM/DARSIE@tiny: 100 cycles",
            "removed MM/UV@tiny",
        ]

    def test_names_a_moved_field_even_when_cycles_hold(self):
        lrr = key(dict(RUN, gpu={"scheduler_policy": "lrr"}))
        assert golden.diff({lrr: self.STATS}, {lrr: dict(self.STATS, l1_misses=2)}) == [
            "moved   MM/BASE@tiny gpu.scheduler_policy=lrr: cycles 100 -> 100 (+0); "
            "fields l1_misses",
        ]

    def test_names_a_moved_event_order_even_when_every_count_holds(self, store):
        stats = store[key(RUN)]
        order = stats[golden.ORDER_FIELD]
        swapped = dict(stats, **{golden.ORDER_FIELD: order[1:2] + order[:1] + order[2:]})
        assert golden.diff({key(RUN): stats}, {key(RUN): swapped}) == [
            f"moved   MM/BASE@tiny: cycles {stats['cycles']} -> {stats['cycles']} (+0); "
            "fields energy_event_order",
        ]

    def test_names_a_removed_entry_it_cannot_read_by_its_key(self):
        gone = key(dict(RUN, gpu={"warp_speed": 9}))
        assert golden.diff({gone: self.STATS}, {}) == [f"removed {gone}"]

    def test_is_empty_when_nothing_moved(self, store):
        assert golden.diff(store, dict(store)) == []


def test_an_entry_lists_the_events_in_first_increment_order():
    stats = SimStats(cycles=3)
    for event in (EnergyEvent.DECODE, EnergyEvent.RF_READ, EnergyEvent.DECODE,
                  EnergyEvent.ALU_OP):
        stats.energy_events[event] += 1
    pinned = golden.entry(stats)
    assert pinned[golden.ORDER_FIELD] == ["decode", "rf_read", "alu_op"]
    assert {k: v for k, v in pinned.items() if k != golden.ORDER_FIELD} == stats.to_dict()


class TestCommittedStore:
    def test_rewriting_it_is_byte_identical(self, store, tmp_path):
        out = tmp_path / "golden.json"
        golden.write(store, str(out))
        with open(STORE, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_it_pins_exactly_the_matrix(self, store):
        runs = golden.matrix()
        assert len(runs) == 247
        assert sorted(store) == sorted(run.canonical_json() for run in runs)

    def test_a_registered_variant_joins_the_matrix(self, store):
        REGISTRY.register(Variant(
            name="TEST-UNPINNED", make_frontend=lambda inputs, darsie: None, tags=("test",),
        ))
        try:
            added = {run.canonical_json() for run in golden.matrix()} - set(store)
        finally:
            REGISTRY.unregister("TEST-UNPINNED")
        assert len(added) == 13  # one per app at tiny, until the store is rewritten


class TestCommand:
    RUNS = [
        RunConfig(abbr="LIB", variant="BASE", scale="tiny"),
        RunConfig(abbr="LIB", variant="UV", scale="tiny"),
    ]

    @pytest.fixture(autouse=True)
    def two_run_matrix(self, monkeypatch, tmp_path):
        monkeypatch.setattr(golden, "matrix", lambda: list(self.RUNS))
        monkeypatch.setattr(golden, "STORE_PATH", str(tmp_path / "golden.json"))

    def test_writes_the_store_and_prints_the_diff(self, store, capsys):
        base, uv = (run.canonical_json() for run in self.RUNS)
        gone = key(dict(RUN, abbr="LIB", variant="DARSIE"))
        golden.write({base: dict(store[base], cycles=store[base]["cycles"] + 7),
                      gone: store[gone]}, golden.STORE_PATH)

        assert main(["golden", "--no-cache"]) == 0
        out = capsys.readouterr().out
        cycles = store[base]["cycles"]
        assert (f"moved   LIB/BASE@tiny: cycles {cycles + 7} -> {cycles} (-7); "
                "fields cycles") in out
        assert f"added   LIB/UV@tiny: {store[uv]['cycles']} cycles" in out
        assert "removed LIB/DARSIE@tiny" in out
        assert "golden: 1 of 2 specs moved, 1 added, 1 removed" in out
        assert golden.load() == {base: store[base], uv: store[uv]}

        assert main(["golden", "--no-cache"]) == 0
        assert "golden: 0 of 2 specs moved, 0 added, 0 removed" in capsys.readouterr().out

    def test_refuses_to_run_outside_the_repository_root(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(golden, "STORE_PATH", str(tmp_path / "tests" / "golden.json"))
        with pytest.raises(SystemExit) as exc_info:
            main(["golden", "--no-cache"])
        assert exc_info.value.code == 2
        assert "run golden from the repository root" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--apps", "MM"], ["--set", "gpu.l1_lines=512"]])
    def test_takes_no_apps_or_overrides(self, extra, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["golden"] + extra)
        assert exc_info.value.code == 2
        assert "golden recomputes the whole pinned matrix" in capsys.readouterr().err
