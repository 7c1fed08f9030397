"""End-to-end benchmark: whole scenario runs of the paper's figures.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload race-cold --seed 0 --seconds 55 --trace 0

Each timed run is a fresh interpreter (``e2e_child.py``) that imports
:mod:`repro`, builds the workload's builtin scenario, constructs a
:class:`~repro.engine.parallel.ParallelRunner` and calls ``run_scenario``.
Runs repeat until ``--seconds`` is used up (at least three), and every
end-to-end metric is the median over the runs.  Seed 0 runs the scenarios
exactly as registered and must reproduce the committed report digests; any
other seed moves every benchmark profile to seed block ``seed``, and a seeded
sample of the executed jobs is re-simulated on the interpreter kernel and
compared field for field.  Every run also checks the engine's counters
against what the workload is defined to do.

``--trace 1`` adds one traced run (``e2e_spans.py``) and prints the per-layer
metrics instead; the traced report must equal the untraced one.

All stores and caches live in a fresh directory under ``.e2e_bench/`` at the
repository root, removed on exit; the span file of a traced run is written to
``.e2e_bench/spans/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 when
any check failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from e2e_spans import ROOT, Span, call_counts, self_times
from e2e_workloads import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WORKLOADS,
    Workload,
    block_for,
    digest_errors,
    expected_digests,
    median,
    metric,
    ratio,
    traffic_errors,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
CHILD = HERE / "e2e_child.py"
#: Scratch stores and caches (one fresh subdirectory per benchmark run) and span files.
SCRATCH = REPO / ".e2e_bench"

#: Timed runs per benchmark run, at least (medians need a few samples).
MIN_RUNS = 3
#: Executed jobs re-simulated on the interpreter per unverified seed block.
SAMPLE_JOBS = 3
#: The whole benchmark must finish within this many seconds.
BUDGET_S = 175.0
#: Layers that run inside worker processes: for a parallel workload their
#: spans come from a serial traced run over the same store.
WORKER_LAYERS = ("workloads.", "partition.", "uops.", "cluster.")


class RunFailed(Exception):
    """A scenario run that raised, timed out or printed no result."""


class Bench:
    """One benchmark invocation: its scratch directory, deadline and tallies."""

    def __init__(self, workload: Workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: seed block -> report digest of the first verified run of it.
        self.verified: Dict[int, str] = {}
        self.expected = expected_digests()

    def spawn(self, request: Dict[str, object]) -> Dict[str, object]:
        """Run ``e2e_child.py`` on ``request``; return its result, with ``setup_s``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("time budget exhausted")
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        process = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(request)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise RunFailed(f"{request['run']}: timed out") from None
        if process.returncode != 0 or not out.strip():
            sys.stderr.write(err)
            raise RunFailed(f"{request['run']}: exited with {process.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        return result

    def request(self, run: str, block: int, trace_dir: Path, cache_dir: Optional[Path],
                jobs: int, trace: bool = False) -> Dict[str, object]:
        return {
            "run": run,
            "workload": self.workload.name,
            "block": block,
            "jobs": jobs,
            "trace_dir": str(trace_dir),
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
            "trace": trace,
            "sample": 0 if block == 0 or block in self.verified else SAMPLE_JOBS,
        }

    def dirs(self, run: str, block: int):
        """Trace-store and result-cache directories for one run."""
        if self.workload.warm_store:
            trace_dir = self.scratch / f"warm-store-{block}"
        else:
            trace_dir = self.scratch / run / "traces"
        cache_dir = self.scratch / run / "cache" if self.workload.result_cache else None
        return trace_dir, cache_dir

    def prefill(self, block: int) -> None:
        """Fill the warm trace store with one untimed run of the same scenario."""
        trace_dir, _ = self.dirs("prefill", block)
        request = self.request("prefill", block, trace_dir, None, self.workload.jobs)
        request["sample"] = 0
        self.spawn(request)

    def run(self, run: str, block: int, jobs: Optional[int] = None,
            trace: bool = False, check_traffic: bool = True) -> Optional[Dict[str, object]]:
        """One checked scenario run; ``None`` (and a recorded error) if it failed."""
        self.attempted += 1
        trace_dir, cache_dir = self.dirs(run, block)
        request = self.request(run, block, trace_dir, cache_dir, jobs or self.workload.jobs, trace)
        try:
            result = self.spawn(request)
        except RunFailed as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return None
        errors = list(result["mismatches"])
        if check_traffic:
            errors += traffic_errors(self.workload.name, block, result["counters"])
        digest = result["digest"]
        if block == 0:
            errors += digest_errors(self.workload.name, digest, self.expected)
        elif block in self.verified and digest != self.verified[block]:
            errors.append(f"{run}: report differs from the first run of block {block}")
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            return None
        self.verified.setdefault(block, digest)
        result["block"] = block
        return result


def timed_runs(bench: Bench, seconds: float) -> List[Dict[str, object]]:
    """Untraced runs until ``seconds`` are used up (at least :data:`MIN_RUNS`)."""
    results: List[Dict[str, object]] = []
    durations: List[float] = []
    start = time.monotonic()
    rep = 0
    while rep < MIN_RUNS or time.monotonic() - start + median(durations) <= seconds:
        began = time.monotonic()
        result = bench.run(f"run{rep}", block_for(bench.workload, bench.seed, rep))
        durations.append(time.monotonic() - began)
        if result is not None:
            results.append(result)
        rep += 1
    return results


def end_to_end(results: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    values = {
        "wall_s": [r["wall_s"] for r in results],
        "sim_uops_per_s": [r["committed_uops"] / r["wall_s"] for r in results],
        "cpu_s": [r["cpu_s"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in results],
    }
    for name, sample in values.items():
        print(
            f"# {name}: median {median(sample):.6g} {END_TO_END_UNITS[name]} over "
            f"{len(sample)} runs (min {min(sample):.6g}, max {max(sample):.6g})"
        )
    return {name: metric(name, median(sample)) for name, sample in values.items()}


def _spans(result: Dict[str, object]) -> List[Span]:
    return [Span(**span) for span in result["spans"]]


def layer_table(result: Dict[str, object], label: str) -> None:
    """Print one traced run's self times; the rows plus ``other`` sum to its wall."""
    spans = _spans(result)
    selfs = self_times(spans)
    calls = call_counts(spans)
    wall = result["wall_s"]
    print(f"# layers of {label}: traced wall {wall:.4f} s")
    for name in sorted(selfs, key=lambda key: -selfs[key]):
        print(f"#   {name:<22} {selfs[name]:9.4f} s {100 * selfs[name] / wall:6.1f} %  "
              f"{calls[name]:6d} calls")
    other = wall - sum(selfs.values())
    print(f"#   {'other':<22} {other:9.4f} s {100 * other / wall:6.1f} %")


def per_layer(main: Dict[str, object], split: Dict[str, object],
              untraced_wall: float) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics; worker-side layers come from ``split``."""
    spans = {"main": _spans(main), "split": _spans(split)}
    selfs = {key: self_times(value) for key, value in spans.items()}
    calls = {key: call_counts(value) for key, value in spans.items()}
    counts = {"main": main["counts"], "split": split["counts"]}

    def source(name: str) -> str:
        return "split" if name.startswith(WORKER_LAYERS) else "main"

    def self_s(span: str) -> float:
        return selfs[source(span)].get(span, 0.0)

    def ncalls(span: str) -> int:
        return calls[source(span)].get(span, 0)

    def count(name: str) -> int:
        return counts[source(name)].get(name, 0)

    batch = main["counters"]["batch"]
    adaptive = main["counters"]["adaptive"]
    run_s = self_s("cluster.run")
    values = {
        "workloads.generate_s": self_s("workloads.generate"),
        "workloads.generate_calls": ncalls("workloads.generate"),
        "engine.artifacts.get_s": self_s("engine.artifacts.get"),
        "engine.artifacts.put_s": self_s("engine.artifacts.put"),
        "engine.artifacts.hit_ratio": ratio(
            count("engine.artifacts.hits"), ncalls("engine.artifacts.get")
        ),
        "partition.annotate_s": self_s("partition.annotate"),
        "partition.annotate_calls": ncalls("partition.annotate"),
        "uops.annotate_from_s": self_s("uops.annotate_from"),
        "cluster.bind_s": self_s("cluster.bind"),
        "cluster.bind_calls": ncalls("cluster.bind"),
        "cluster.run_s": run_s,
        "cluster.runs": ncalls("cluster.run"),
        "cluster.uops_per_s": ratio(count("cluster.committed_uops"), run_s),
        "cluster.warm_accesses": count("cluster.warm_accesses"),
        "engine.cache.get_s": self_s("engine.cache.get"),
        "engine.cache.put_s": self_s("engine.cache.put"),
        "engine.cache.hit_ratio": ratio(
            count("engine.cache.hits"), count("engine.cache.lookups")
        ),
        "engine.parallel.wait_s": self_s("engine.parallel"),
        "engine.parallel.tasks": batch["batches"] - batch["cached_batches"],
        "engine.parallel.run_calls": count("engine.parallel.run_calls"),
        "engine.parallel.worker_peak_rss_mb": main["worker_peak_rss_kb"] / 1024.0,
        "engine.shm.publish_s": self_s("engine.shm.publish"),
        "engine.shm.bytes": main["counters"]["shm"]["bytes"],
        "scenarios.report_s": self_s(ROOT),
        "scenarios.adaptive.planned_sims": adaptive["planned"],
        "scenarios.adaptive.executed_sims": adaptive["executed"],
        "scenarios.adaptive.executed_ratio": ratio(adaptive["executed"], adaptive["planned"]),
        "trace.wall_s": main["wall_s"],
        "trace.other_s": main["wall_s"] - sum(selfs["main"].values()),
        "trace.overhead_ratio": main["wall_s"] / untraced_wall,
    }
    return {name: metric(name, values[name]) for name in PER_LAYER_UNITS}


def traced(bench: Bench, block: int,
           untraced_wall: float) -> Optional[Dict[str, Dict[str, object]]]:
    """Traced run(s) over seed block ``block``; write the span file.

    ``untraced_wall`` is the median untraced wall time of the same block, the
    base of ``trace.overhead_ratio``.
    """
    main = bench.run("traced", block, trace=True)
    if main is None:
        return None
    layer_table(main, f"{bench.workload.name} (jobs={bench.workload.jobs})")
    split = main
    runs = [main]
    if bench.workload.jobs > 1:
        # Worker spans stay in the worker processes; time the worker-side
        # layers on a serial run over the same store instead.
        split = bench.run("traced-serial", block, jobs=1, trace=True, check_traffic=False)
        if split is None:
            return None
        runs.append(split)
        layer_table(split, f"{bench.workload.name} serial over the same store")
        layers = ", ".join(f"{prefix}*" for prefix in WORKER_LAYERS)
        print(f"# {layers} metrics: from the serial traced run")
    spans_dir = SCRATCH / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{bench.workload.name}-seed{bench.seed}.json"
    path.write_text(json.dumps([span for run in runs for span in run["spans"]]))
    print(f"# spans written to {path.relative_to(REPO)}")
    return per_layer(main, split, untraced_wall)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {REPO / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    bench = Bench(workload, args.seed, scratch)
    metrics: Dict[str, Dict[str, object]] = {}
    try:
        if workload.warm_store:
            bench.prefill(block_for(workload, args.seed, 0))
        results = timed_runs(bench, args.seconds)
        if results and not bench.errors:
            if args.trace:
                # The traced run repeats the first timed run's seed block.
                block = results[0]["block"]
                same = [r["wall_s"] for r in results if r["block"] == block]
                metrics = traced(bench, block, median(same)) or {}
            else:
                metrics = end_to_end(results)
    except RunFailed as exc:
        bench.errors.append(str(exc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in bench.errors:
        print(f"# FAILED {error}", file=sys.stderr)
    correct = not bench.errors and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
