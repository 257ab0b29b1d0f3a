"""Tests of the benchmark's own arithmetic and of its contract with
``BENCHMARK.json``.

    python3 -m pytest perf/test_perf.py
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest
from run import (
    DEFAULT_SECONDS,
    E2E,
    PER_LAYER,
    ROOT,
    e2e_metrics,
    extra_cold_sweeps,
    layer_metrics,
    spread,
)
from spans import COARSE_SPANS, SpanRecorder
from speed import INTERVAL_S, NOMINAL_STEP_S, Speedometer, nominal, to_nominal
from workloads import FIG8_VARIANTS, WORKLOADS, permute, sim_digest

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_self_time_subtracts_direct_children():
    rec = SpanRecorder(clock=_clock(0, 2, 5, 6, 8, 10))
    rec.open("outer")
    rec.open("inner")
    rec.close()
    rec.open("inner")
    rec.close()
    rec.close()
    assert rec.totals["outer"] == [1, 10, 5]
    assert rec.totals["inner"] == [2, 5, 5]


def test_recursive_spans_count_inclusive_time_once():
    # f(0..10) > f(1..7) > g(2..3)
    rec = SpanRecorder(clock=_clock(0, 1, 2, 3, 7, 10))
    rec.open("f")
    rec.open("f")
    rec.open("g")
    rec.close()
    rec.close()
    rec.close()
    assert rec.totals["f"] == [2, 10, 9]
    assert rec.totals["g"] == [1, 1, 1]
    assert sum(t[2] for t in rec.totals.values()) == 10  # self times partition the root


def test_span_wrapper_tallies_tags_and_closes_on_error():
    rec = SpanRecorder()
    coarse = "timing.simulate"
    assert coarse in COARSE_SPANS

    def work(n):
        if n < 0:
            raise ValueError(n)
        return n

    wrapped = rec.span(coarse, work, tally=lambda r: "odd" if r % 2 else None)
    hot = rec.span("simt.execute", work)
    for n in (1, 2, 3):
        rec.request = f"req{n}"
        assert wrapped(n) == n
        assert hot(n) == n
    with pytest.raises(ValueError):
        wrapped(-1)
    assert rec.totals[coarse][0] == 4
    assert rec.totals["simt.execute"][0] == 3
    assert rec.counters == {"odd": 2}
    # Only coarse spans are kept whole, tagged with the request id.
    assert [(r[0], r[4]) for r in rec.records] == [
        (coarse, "req1"), (coarse, "req2"), (coarse, "req3"), (coarse, "req3"),
    ]
    assert all(r[3] is None for r in rec.records)  # no parent span
    assert rec._stack == []


def test_spread_is_iqr_over_median():
    assert spread([3.0]) == 0.0
    assert spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    values = [10, 11, 9, 10, 12, 10, 8, 10, 11, 9]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def _speed(slower=1.0, busy_s=0.0):
    return {"busy_s": busy_s, "mean_step_s": slower * NOMINAL_STEP_S, "steps": 10}


def test_nominal_time_drops_the_steps_and_scales_by_host_speed():
    assert nominal(10.0, _speed()) == pytest.approx(10.0)
    assert nominal(10.5, _speed(busy_s=0.5)) == pytest.approx(10.0)
    # Twice as slow a host: half the host seconds at nominal speed.
    assert nominal(20.5, _speed(slower=2.0, busy_s=0.5)) == pytest.approx(10.0)
    assert to_nominal(_speed(slower=1.25)) == pytest.approx(0.8)


def test_speedometer_steps_on_its_timer_and_restores_the_signal():
    speed = Speedometer()
    speed.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 5.5 * INTERVAL_S:
        pass
    window = time.perf_counter() - start
    result = speed.stop()
    assert 4 <= result["steps"] <= 7  # ~5 on the timer, one after stop()
    assert 0 < result["busy_s"] < window
    assert result["mean_step_s"] > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_e2e_metrics_are_medians_at_nominal_speed():
    rows = [("A/BASE@small", 100, 40, 0, 0, ""), ("B/BASE@small", 50, 20, 0, 0, "")]
    colds = [
        {"cold_s": s, "speed": _speed(k), "rows": rows, "peak_rss_mb": r}
        for s, k, r in ((3.0, 1.0, 70.0), (2.0, 2.0, 90.0), (2.0, 1.0, 80.0))
    ]
    m = e2e_metrics(
        setups=[{"setup_s": s, "speed": _speed()} for s in (5.0, 4.0, 6.0)],
        colds=colds,
        warms=[{"warm_s": s, "speed": _speed(busy_s=0.1)} for s in (0.6, 0.8, 0.7)],
    )
    assert list(m) == [name for name, _, _ in E2E]
    assert m == pytest.approx({
        "cold_s": 2.0, "warm_s": 0.6, "setup_s": 5.0,
        "warp_insts_per_s": 30.0, "peak_rss_mb": 80.0,
    })


def test_sim_digest_ignores_order():
    rows = [("A/BASE@small", 10, 5, 0, 0, ""), ("B/UV@small", 12, 6, 1, 2, "")]
    assert sim_digest(rows) == sim_digest(rows[::-1])
    assert sim_digest(rows) == sim_digest([list(r) for r in rows])  # JSON round trip
    assert sim_digest(rows) != sim_digest([("A/BASE@small", 11, 5, 0, 0, ""), rows[1]])


def test_permute_is_seeded():
    items = list(range(20))
    assert permute(items, 0) == items
    assert permute(items, 7) == permute(items, 7)
    assert permute(items, 7) != items
    assert sorted(permute(items, 7)) == items


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _, _ in E2E + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in E2E + PER_LAYER:
        assert NAME_RE.fullmatch(name), name
        assert UNIT_RE.fullmatch(unit), unit
        assert better in ("lower", "higher")


EMPTY_TRACE = {"totals": {}, "counters": {}, "records": [], "scale": 1.0}


def test_layer_metrics_emit_every_declared_name():
    m = layer_metrics(EMPTY_TRACE, EMPTY_TRACE, rows=[], cold_s=1.0, traced_cold_s=1.25)
    assert list(m) == [name for name, _, _ in PER_LAYER]
    assert m["trace_overhead_frac"] == pytest.approx(0.25)


def test_attributed_share_leaves_out_the_root_self_time():
    # run_specs (0..10) covers simulate (1..7) and cache_store (8..9);
    # the host ran at half speed.
    rec = SpanRecorder(clock=_clock(0, 1, 7, 8, 9, 10))
    rec.open("harness.run_specs")
    rec.open("timing.simulate")
    rec.close()
    rec.open("harness.cache_store")
    rec.close()
    rec.close()
    cold = dict(rec.to_dict(), scale=0.5)
    m = layer_metrics(cold, EMPTY_TRACE, rows=[], cold_s=4.0, traced_cold_s=5.0)
    assert m["trace_attributed_frac"] == pytest.approx(0.7)  # (6 + 1) / 10
    assert m["harness.run_specs_self_s"] == pytest.approx(1.5)
    assert m["timing.simulate_s"] == pytest.approx(3.0)
    assert m["trace_overhead_frac"] == pytest.approx(0.25)


def test_span_clock_stands_still_while_the_speedometer_steps():
    speed = Speedometer()
    rec = SpanRecorder(clock=lambda: time.perf_counter() - speed.busy_s)
    speed.start()
    start = time.perf_counter()
    rec.open("work")
    while time.perf_counter() - start < 3.5 * INTERVAL_S:
        pass
    rec.close()
    window = time.perf_counter() - start
    busy_s = speed.stop()["busy_s"]
    assert busy_s > 0
    assert rec.totals["work"][1] == pytest.approx(window - busy_s, abs=1e-3)


@pytest.mark.parametrize("seconds,first_s,left_s,extra", [
    (10, 3.8, 130, 2),    # limit-study: three sweeps cover 10 s
    (10, 33.0, 100, 0),   # fig8: the first sweep already covers it
    (0, 0.5, 130, 0),     # --smoke measures one sweep
    (60, 3.8, 20, 2),     # the budget, not --seconds, limits the sweeps
])
def test_extra_cold_sweeps_fill_seconds_within_the_budget(seconds, first_s, left_s, extra):
    assert extra_cold_sweeps(seconds, first_s, left_s) == extra


def test_benchmark_json_declares_what_run_emits():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "perf/run.py"]
    assert spec["paths"] == ["perf"]
    assert spec["run_seconds"] == DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_fig8_variants_match_the_registry():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.variants import REGISTRY
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert REGISTRY.by_tag("fig8") == FIG8_VARIANTS


@pytest.mark.parametrize("workload,trace,declared", [
    ("limit-study", "0", E2E),
    ("fig8", "1", PER_LAYER),
])
def test_smoke_run_is_correct_and_emits_the_declared_metrics(workload, trace, declared):
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--smoke", "--workload", workload, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _, _ in declared]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "fig8", "--seed", "1",
         "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
