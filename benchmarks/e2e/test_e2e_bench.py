"""Tests of the end-to-end benchmark's own logic (not of the simulator).

Span self-time arithmetic, the metric tables against ``BENCHMARK.json``, the
traffic assertions, the digest check, per-layer metric assembly, and one
small traced scenario run whose report must equal the untraced one.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest
from e2e_spans import ROOT, Span, SpanRecorder, call_counts, instrument, self_times
from e2e_workloads import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WORKLOADS,
    block_for,
    digest_errors,
    expected_digests,
    report_digest,
    traffic_errors,
)

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"


def _load_run_module():
    spec = importlib.util.spec_from_file_location("e2e_bench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span(name, start, end, parent=-1):
    return Span(name=name, start=start, end=end, parent=parent, run="t")


# -- self time ------------------------------------------------------------------
def test_self_time_of_nested_spans():
    spans = [_span("a", 0.0, 10.0), _span("b", 2.0, 5.0, 0), _span("c", 3.0, 4.0, 1)]
    assert self_times(spans) == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_self_time_of_sibling_spans_sums_repeated_names():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 3.0, 0),
        _span("b", 5.0, 8.0, 0),
        _span("c", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx({"a": 3.5, "b": 5.0, "c": 1.5})
    assert call_counts(spans) == {"a": 1, "b": 2, "c": 1}


def test_self_time_clips_overlapping_children():
    spans = [_span("a", 0.0, 4.0), _span("b", 1.0, 3.0, 0), _span("c", 2.0, 5.0, 0)]
    assert self_times(spans)["a"] == pytest.approx(1.0)


def test_recorder_links_parents():
    recorder = SpanRecorder("r")
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)
    ]
    assert all(s.end >= s.start and s.run == "r" for s in recorder.spans)


# -- metric names and units -----------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    config = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in config["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for entry in config["end_to_end"] + config["per_layer"] + config["workloads"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", entry["name"])
    for entry in config["end_to_end"] + config["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        assert entry["better"] in ("lower", "higher")


def test_per_layer_metrics_add_up_to_the_traced_wall():
    run_module = _load_run_module()
    spans = [
        _span(ROOT, 0.0, 10.0),
        _span("engine.parallel", 1.0, 9.0, 0),
        _span("workloads.generate", 2.0, 3.0, 1),
        _span("cluster.run", 3.0, 7.0, 1),
    ]
    counters = {
        "batch": {"batches": 4, "cached_batches": 1},
        "adaptive": {"planned": 0, "executed": 0},
        "shm": {"bytes": 0},
    }
    run = {
        "spans": [span.to_dict() for span in spans],
        "counts": {"cluster.committed_uops": 400, "engine.parallel.run_calls": 1},
        "counters": counters,
        "wall_s": 10.5,
        "worker_peak_rss_kb": 0,
    }
    metrics = run_module.per_layer(run, run, untraced_wall=7.0)
    assert list(metrics) == list(PER_LAYER_UNITS)
    values = {name: entry["value"] for name, entry in metrics.items()}
    assert values["cluster.run_s"] == pytest.approx(4.0)
    assert values["cluster.uops_per_s"] == pytest.approx(100.0)
    assert values["engine.parallel.wait_s"] == pytest.approx(3.0)
    assert values["engine.parallel.tasks"] == 3
    assert values["trace.other_s"] == pytest.approx(0.5)
    assert values["trace.overhead_ratio"] == pytest.approx(1.5)
    layer_total = sum(
        values[name] for name in (
            "scenarios.report_s", "engine.parallel.wait_s",
            "workloads.generate_s", "cluster.run_s", "trace.other_s",
        )
    )
    assert layer_total == pytest.approx(values["trace.wall_s"])


# -- traffic assertions ---------------------------------------------------------
def _counters(trace=(0, 0, 0), cache_hits=0, cache_stores=0, executed=200,
              planned=0, adaptive_executed=0, published=0):
    hits, misses, stores = trace
    return {
        "trace": {"hits": hits, "misses": misses, "stores": stores},
        "cache": {"hits": cache_hits, "misses": 0, "stores": cache_stores},
        "batch": {"executed_jobs": executed},
        "adaptive": {"planned": planned, "executed": adaptive_executed},
        "shm": {"published": published},
    }


def _race_counters(trace=(0, 20, 20)):
    return _counters(trace=trace, cache_stores=80, executed=80, planned=400,
                     adaptive_executed=80)


def test_cold_workload_passes_on_an_empty_store():
    assert traffic_errors("race-cold", 0, _race_counters()) == []


def test_cold_workload_fails_on_a_prewarmed_store():
    errors = traffic_errors("race-cold", 0, _race_counters(trace=(20, 0, 0)))
    assert any("traces loaded: 20" in error for error in errors)


def test_warm_workload_fails_when_it_generates():
    assert traffic_errors("fig7-warm-jobs2", 0, _counters(trace=(40, 0, 0), published=40)) == []
    errors = traffic_errors("fig7-warm-jobs2", 0, _counters(trace=(0, 40, 40), published=40))
    assert any("traces generated: 40" in error for error in errors)


def test_race_counts_exactly_on_block_zero_and_an_early_stop_elsewhere():
    assert traffic_errors("race-cold", 0, _race_counters()) == []
    other = _counters(trace=(0, 25, 25), cache_stores=90, executed=90, planned=400,
                      adaptive_executed=90)
    assert traffic_errors("race-cold", 1, other) == []
    assert traffic_errors("race-cold", 0, other)
    exhaustive = _counters(trace=(0, 100, 100), cache_stores=400, executed=400,
                           planned=400, adaptive_executed=400)
    assert traffic_errors("race-cold", 1, exhaustive)


def test_window_applies_to_the_race_only():
    assert [block_for(WORKLOADS["race-cold"], 5, rep) for rep in range(3)] == [5, 6, 7]
    assert [block_for(WORKLOADS["fig7-warm-jobs2"], 5, rep) for rep in range(3)] == [5, 5, 5]


# -- digests --------------------------------------------------------------------
def test_digest_check_fails_on_a_perturbed_report():
    report = "Figure 7(c) -- average slowdown vs OP (%)\nVC  1.23\n"
    expected = {"fig7-warm-jobs2": report_digest(report)}
    assert digest_errors("fig7-warm-jobs2", report_digest(report), expected) == []
    perturbed = report.replace("1.23", "1.24")
    assert digest_errors("fig7-warm-jobs2", report_digest(perturbed), expected)
    assert digest_errors("race-cold", report_digest(report), expected)


def test_committed_digests_cover_every_workload():
    digests = expected_digests()
    assert set(digests) == set(WORKLOADS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in digests.values())


# -- a traced run ---------------------------------------------------------------
def test_traced_run_reports_identically_and_accounts_its_wall(tmp_path):
    from repro.engine.cache import ResultCache
    from repro.engine.parallel import ParallelRunner
    from repro.scenarios import builtin_scenario, run_scenario

    spec = builtin_scenario("quickstart")

    def run(root, recorder=None):
        engine = ParallelRunner(cache=ResultCache(root), trace_root=root / "traces")
        try:
            if recorder is None:
                return run_scenario(spec, engine=engine)
            with recorder.span(ROOT):
                return run_scenario(spec, engine=engine)
        finally:
            engine.shutdown()

    untraced = run(tmp_path / "plain")
    recorder = SpanRecorder("traced")
    undo = instrument(recorder)
    try:
        traced = run(tmp_path / "traced", recorder)
    finally:
        undo()
    assert traced == untraced
    root = recorder.spans[0]
    assert root.name == ROOT
    assert sum(self_times(recorder.spans).values()) == pytest.approx(root.end - root.start)
    calls = call_counts(recorder.spans)
    assert calls["workloads.generate"] == 1
    assert calls["cluster.run"] == 5
    # Five configurations commit the same (slightly over-length) trace.
    committed = recorder.counts["cluster.committed_uops"]
    assert committed % 5 == 0 and committed >= 5 * spec.trace_length
    assert recorder.counts["engine.cache.lookups"] == 5
    # The wrappers are gone again: a fresh run records nothing.
    recorded = len(recorder.spans)
    run(tmp_path / "after")
    assert len(recorder.spans) == recorded
