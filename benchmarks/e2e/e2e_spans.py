"""Layer spans for the end-to-end benchmark's traced runs.

A traced run wraps the public method at each layer boundary of the program
(:func:`instrument`) and records one span per call -- name, start, end,
parent span, run id -- in memory.  Self time is a span's duration minus the
part of it that its child spans cover (:func:`self_times`).  Nothing under
``src/`` changes: the wrappers are installed on the classes of one fresh
benchmark process and removed again before it checks its outputs.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Span name of the whole ``run_scenario`` call.
ROOT = "scenarios"


@dataclass
class Span:
    """One timed call: ``parent`` indexes the recorder's span list (-1 = root)."""

    name: str
    start: float
    end: float
    parent: int
    run: str

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class SpanRecorder:
    """In-memory span list plus the counts recorded at the same boundaries."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        #: processor -> its bound trace (for the warm-up access count).
        self.bound: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus child-covered time."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        covered = _covered(children[index], span.start, span.end)
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


def call_counts(spans: Sequence[Span]) -> Dict[str, int]:
    """Number of spans per name."""
    return dict(Counter(span.name for span in spans))


def _after_artifact_get(recorder: SpanRecorder, owner, result) -> None:
    recorder.counts["engine.artifacts.hits"] += result is not None


def _after_cache_get(recorder: SpanRecorder, owner, result) -> None:
    recorder.counts["engine.cache.lookups"] += len(result)
    recorder.counts["engine.cache.hits"] += sum(entry is not None for entry in result)


def _after_bind(recorder: SpanRecorder, owner, result) -> None:
    recorder.bound[owner] = result


def _after_run(recorder: SpanRecorder, owner, result) -> None:
    recorder.counts["cluster.committed_uops"] += result.committed_uops
    # Cached on the trace by the warm-up the run just did; outside the span.
    addresses, _ = recorder.bound[owner].memory_access_plan()
    recorder.counts["cluster.warm_accesses"] += len(addresses)


def _boundaries():
    """``(class, method, span name, observer)`` for every wrapped layer call."""
    from repro.cluster.processor import ClusteredProcessor
    from repro.engine.artifacts import TraceArtifactStore
    from repro.engine.cache import ResultCache
    from repro.engine.shm import SegmentRegistry
    from repro.partition.base import RegionPartitioner
    from repro.uops.compiled import CompiledTrace
    from repro.workloads.generator import WorkloadGenerator

    return (
        (WorkloadGenerator, "generate_compiled_trace", "workloads.generate", None),
        (TraceArtifactStore, "get", "engine.artifacts.get", _after_artifact_get),
        (TraceArtifactStore, "put", "engine.artifacts.put", None),
        (RegionPartitioner, "annotate_program", "partition.annotate", None),
        (CompiledTrace, "annotate_from", "uops.annotate_from", None),
        (ClusteredProcessor, "bind", "cluster.bind", _after_bind),
        (ClusteredProcessor, "run_bound", "cluster.run", _after_run),
        (ResultCache, "get_many", "engine.cache.get", _after_cache_get),
        (ResultCache, "put", "engine.cache.put", None),
        (SegmentRegistry, "publish", "engine.shm.publish", None),
    )


def _wrap_call(recorder: SpanRecorder, original: Callable, name: str, observe) -> Callable:
    def traced(self, *args, **kwargs):
        with recorder.span(name):
            result = original(self, *args, **kwargs)
        if observe is not None:
            observe(recorder, self, result)
        return result

    return traced


def _wrap_stream(recorder: SpanRecorder, original: Callable) -> Callable:
    """``ParallelRunner.run_stream``: one span per result pulled from the engine.

    The consumer's work between results stays outside the spans, so the
    ``engine.parallel`` self time is the parent's scheduling and waiting on
    workers, not the report code that folds the results.
    """

    def traced(self, jobs):
        recorder.counts["engine.parallel.run_calls"] += 1
        stream = original(self, jobs)
        while True:
            with recorder.span("engine.parallel"):
                try:
                    item = next(stream)
                except StopIteration:
                    return
            yield item

    return traced


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer boundary to record into ``recorder``; return the undo."""
    from repro.engine.parallel import ParallelRunner

    originals = []
    for owner, attr, name, observe in _boundaries():
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, _wrap_call(recorder, original, name, observe))
    original = ParallelRunner.__dict__["run_stream"]
    originals.append((ParallelRunner, "run_stream", original))
    ParallelRunner.run_stream = _wrap_stream(recorder, original)

    def undo() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

    return undo
