"""Workload table, metric table and output checks of the end-to-end benchmark.

Pure data and arithmetic only -- nothing here imports :mod:`repro`, so the
benchmark entry point (``run.py``) can validate a run without paying the
simulator's import cost, and the checks can be unit-tested on synthetic
counters.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

HERE = Path(__file__).resolve().parent

#: Committed SHA-256 digests of each workload's seed-0 report text.
DIGEST_FILE = HERE / "expected_digests.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a builtin scenario run in a fixed way.

    Why each workload was chosen is recorded in ``BENCHMARK.json``.

    ``warm_store`` pre-fills the trace store with one untimed run, so every
    timed run loads its traces; otherwise every timed run gets an empty trace
    store.  ``result_cache`` gives each timed run a fresh, empty result cache.
    ``window`` makes timed run ``k`` use seed block ``seed + k``: the adaptive
    race stops early on its measured values, so its work differs from block to
    block (65-110 of 400 simulations over blocks 0-19), and a run reports the
    median over a window of blocks instead of one block's work volume.
    """

    name: str
    scenario: str
    jobs: int
    warm_store: bool
    result_cache: bool
    window: bool


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig7-warm-jobs2",
            scenario="figure7",
            jobs=2,
            warm_store=True,
            result_cache=False,
            window=False,
        ),
        Workload(
            name="race-cold",
            scenario="adaptive-race",
            jobs=1,
            warm_store=False,
            result_cache=True,
            window=True,
        ),
    )
}

#: End-to-end metrics (untraced runs, medians over the run set) -> unit.
END_TO_END_UNITS: Dict[str, str] = {
    "wall_s": "s",
    "sim_uops_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (the traced run) -> unit, named by ``src/repro`` module.
PER_LAYER_UNITS: Dict[str, str] = {
    "workloads.generate_s": "s",
    "workloads.generate_calls": "count",
    "engine.artifacts.get_s": "s",
    "engine.artifacts.put_s": "s",
    "engine.artifacts.hit_ratio": "ratio",
    "partition.annotate_s": "s",
    "partition.annotate_calls": "count",
    "uops.annotate_from_s": "s",
    "cluster.bind_s": "s",
    "cluster.bind_calls": "count",
    "cluster.run_s": "s",
    "cluster.runs": "count",
    "cluster.uops_per_s": "1/s",
    "cluster.warm_accesses": "count",
    "engine.cache.get_s": "s",
    "engine.cache.put_s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.parallel.wait_s": "s",
    "engine.parallel.tasks": "count",
    "engine.parallel.run_calls": "count",
    "engine.parallel.worker_peak_rss_mb": "MB",
    "engine.shm.publish_s": "s",
    "engine.shm.bytes": "bytes",
    "scenarios.report_s": "s",
    "scenarios.adaptive.planned_sims": "count",
    "scenarios.adaptive.executed_sims": "count",
    "scenarios.adaptive.executed_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_ratio": "ratio",
}


def block_for(workload: Workload, seed: int, rep: int) -> int:
    """The seed block timed run ``rep`` of a run with ``seed`` simulates."""
    return seed + rep if workload.window else seed


def report_digest(report: str) -> str:
    """SHA-256 of a report's text."""
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def expected_digests() -> Dict[str, str]:
    """The committed seed-0 report digests, by workload name."""
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def digest_errors(workload: str, digest: str, expected: Mapping[str, str]) -> List[str]:
    """Why ``digest`` is not ``workload``'s committed seed-0 digest (empty if it is)."""
    want = expected.get(workload)
    if want is None:
        return [f"{workload}: no committed seed-0 digest"]
    if digest != want:
        return [f"{workload}: seed-0 report digest {digest[:16]} != committed {want[:16]}"]
    return []


def _expect(errors: List[str], label: str, actual: int, wanted: int) -> None:
    if actual != wanted:
        errors.append(f"{label}: {actual} (expected {wanted})")


def traffic_errors(workload: str, block: int, counters: Mapping[str, Mapping[str, int]]) -> List[str]:
    """Check from the engine's own counters that a run did what ``workload`` defines.

    ``counters`` holds the run's ``trace``, ``cache``, ``batch``,
    ``adaptive`` and ``shm`` statistics (the engine's ``trace_stats()``,
    ``ResultCache.stats()``, ``batch_stats``, ``adaptive_stats`` and
    ``shm_stats()``).  A cold workload that finds its traces already stored,
    or a warm one that has to generate them, fails here.
    """
    trace = counters["trace"]
    batch = counters["batch"]
    errors: List[str] = []
    if workload == "fig7-warm-jobs2":
        _expect(errors, "traces loaded", trace["hits"], 40)
        _expect(errors, "traces generated", trace["misses"], 0)
        _expect(errors, "segments published", counters["shm"]["published"], 40)
        _expect(errors, "simulations executed", batch["executed_jobs"], 200)
    elif workload == "race-cold":
        adaptive = counters["adaptive"]
        executed = adaptive["executed"]
        _expect(errors, "planned simulations", adaptive["planned"], 400)
        if block == 0:
            _expect(errors, "executed simulations", executed, 80)
        elif not 0 < executed < adaptive["planned"]:
            errors.append(f"executed simulations: {executed} (expected an early stop)")
        _expect(errors, "engine-executed simulations", batch["executed_jobs"], executed)
        _expect(errors, "result-cache hits", counters["cache"]["hits"], 0)
        _expect(errors, "result-cache stores", counters["cache"]["stores"], executed)
        _expect(errors, "traces loaded", trace["hits"], 0)
        _expect(errors, "traces stored", trace["stores"], trace["misses"])
    else:
        errors.append(f"unknown workload {workload!r}")
    return [f"{workload} (block {block}): {error}" for error in errors]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def metric(name: str, value: float) -> Dict[str, object]:
    """One output entry ``{"value", "unit"}``, with the unit of the metric tables."""
    return {"value": value, "unit": {**END_TO_END_UNITS, **PER_LAYER_UNITS}[name]}
