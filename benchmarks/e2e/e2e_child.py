"""One scenario run of the end-to-end benchmark, in a fresh interpreter.

Usage (from ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python e2e_child.py '<request JSON>'

The request names the workload, the seed block, the worker count, the trace
and result-cache directories, whether to trace, and how many executed jobs to
re-simulate on the interpreter kernel.  The run prints one JSON line: the
moment the engine was ready (``CLOCK_MONOTONIC``, comparable with the
parent's spawn time), wall and CPU time of the scenario, peak RSS, the report
digest, the engine's own counters and -- when traced -- the spans.

A fresh process per run is the point: the per-process trace memo and the
compiled-trace hoist caches would otherwise let later runs skip work that
every CLI invocation pays for.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from e2e_spans import SpanRecorder, instrument
from e2e_workloads import WORKLOADS, report_digest

from repro.engine.cache import ResultCache
from repro.engine.parallel import ParallelRunner
from repro.scenarios import builtin_scenario, replicate_profile, run_scenario


class RecordingRunner(ParallelRunner):
    """A :class:`ParallelRunner` that keeps every ``(job, metrics)`` it yields."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.results: List[Tuple[object, object]] = []

    def run_stream(self, jobs):
        for index, metrics in super().run_stream(jobs):
            self.results.append((jobs[index], metrics))
            yield index, metrics


def shift_profiles(block: int) -> None:
    """Move every benchmark profile to seed block ``block`` (0 = as registered).

    The shift is :func:`~repro.scenarios.replicate_profile`'s, keeping the
    profile's name so the scenarios' reports keep their layout.
    """
    from repro.workloads import spec2000

    for table in (spec2000.SPEC_INT_TRACES, spec2000.SPEC_FP_TRACES, spec2000.ALL_TRACES):
        for name, profile in table.items():
            table[name] = replace(replicate_profile(profile, block), name=name)


def reference_mismatches(samples: Sequence[Tuple[object, object]]) -> List[str]:
    """Re-simulate ``samples`` on the interpreter kernel; list differing fields.

    The reference path regenerates each trace from its profile rather than
    reading any store, and runs on a fresh processor.
    """
    from repro.cluster.processor import ClusteredProcessor
    from repro.workloads.generator import WorkloadGenerator

    mismatches = []
    for job, metrics in samples:
        generator = WorkloadGenerator(job.profile, register_space=job.register_space)
        program, compiled = generator.generate_compiled_trace(job.trace_length, phase=job.phase)
        configuration = job.configuration
        partitioner = configuration.make_partitioner(
            job.num_clusters, job.num_virtual_clusters, job.region_size
        )
        if partitioner is not None:
            partitioner.annotate_program(program)
        else:
            program.clear_annotations()
        compiled.annotate_from(program)
        policy = configuration.make_policy(job.num_clusters, job.num_virtual_clusters)
        processor = ClusteredProcessor(
            job.machine_config(), policy, job.register_space, kernel="interpreter"
        )
        want = processor.run(compiled).to_dict()
        got = metrics.to_dict()
        fields = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
        if fields:
            mismatches.append(f"{job.label}: {', '.join(fields)} differ from the interpreter")
    return mismatches


def _cpu_seconds() -> Tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def main(request: Dict[str, object]) -> Dict[str, object]:
    workload = WORKLOADS[request["workload"]]
    shift_profiles(request["block"])
    spec = builtin_scenario(workload.scenario)
    cache = ResultCache(request["cache_dir"]) if request["cache_dir"] else None
    engine = RecordingRunner(
        max_workers=request["jobs"], cache=cache, trace_root=request["trace_dir"]
    )
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    recorder = SpanRecorder(request["run"]) if request["trace"] else None
    undo = instrument(recorder) if recorder is not None else None
    own_before, children_before = _cpu_seconds()
    try:
        start = time.perf_counter()
        if recorder is not None:
            with recorder.span("scenarios"):
                report = run_scenario(spec, engine=engine)
        else:
            report = run_scenario(spec, engine=engine)
        wall = time.perf_counter() - start
        counters = {
            "trace": engine.trace_stats(),
            "cache": cache.stats() if cache is not None else {"hits": 0, "misses": 0, "stores": 0},
            "batch": dict(engine.batch_stats),
            "adaptive": dict(engine.adaptive_stats),
            "shm": engine.shm_stats(),
        }
    finally:
        engine.shutdown()
        if undo is not None:
            undo()
    own_after, children_after = _cpu_seconds()

    result: Dict[str, object] = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": (own_after - own_before) + (children_after - children_before),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "worker_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "digest": report_digest(report),
        "committed_uops": sum(metrics.committed_uops for _, metrics in engine.results),
        "counters": counters,
        "mismatches": [],
    }
    if request["sample"]:
        rng = random.Random(request["block"])
        picks = rng.sample(engine.results, min(request["sample"], len(engine.results)))
        result["mismatches"] = reference_mismatches(picks)
    if recorder is not None:
        result["spans"] = [span.to_dict() for span in recorder.spans]
        result["counts"] = dict(recorder.counts)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
