"""Warmed cache state is computed once per (trace, memory geometry) and restored by copy.

The first warm-up of a trace on a memory geometry replays the trace's access
plan and keeps a snapshot of the tag state on the trace; every run restores
that snapshot into fresh per-set lists.  Pinned here: a restored run equals a
replayed one, restoring never aliases the snapshot, one batch may mix memory
geometries, ``warm_caches=False`` never touches a snapshot, and frozen traces
(``$REPRO_SANITIZE=1``) give the same results.
"""

from __future__ import annotations

import copy

import pytest

from repro.cluster.cache import MemoryHierarchy
from repro.cluster.config import ClusterConfig
from repro.cluster.kernel import KERNEL_ENV, KERNELS
from repro.cluster.processor import ClusteredProcessor
from repro.engine.job import SimulationJob
from repro.engine.parallel import _TRACE_MEMO, execute_batch, execute_job
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.sanitize import SANITIZE_ENV
from repro.uops.compiled import CompiledTrace
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for

#: Two memory geometries: Table 2's L1, and a smaller, less associative one.
SMALL_L1 = (("l1_assoc", 2), ("l1_size_kb", 8))


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    """Every test starts without memoized traces (and so without snapshots)."""
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


def fresh_trace(length=800):
    _, compiled = WorkloadGenerator(profile_for("181.mcf")).generate_compiled_trace(length)
    return compiled


def stored_snapshot(compiled: CompiledTrace, memory: MemoryHierarchy):
    def missing():
        raise AssertionError("no snapshot was stored for this geometry")

    return compiled.warm_state(memory.geometry, missing)


def replayed_snapshot(compiled: CompiledTrace, config: ClusterConfig):
    memory = MemoryHierarchy.from_config(config)
    addresses, loads = compiled.memory_access_plan()
    for address, is_load in zip(addresses, loads):
        if is_load:
            memory.load_latency(address)
        else:
            memory.store_access(address)
    return memory.snapshot()


def make_processor(kernel, config=None, name="OP"):
    policy = TABLE3_CONFIGURATIONS[name].make_policy(2, 2)
    return ClusteredProcessor(config or ClusterConfig(num_clusters=2), policy, kernel=kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_repeated_runs_restore_without_aliasing(kernel):
    compiled = fresh_trace()
    processor = make_processor(kernel)
    processor.bind(compiled)
    first = processor.run_bound().to_dict()
    snapshot = stored_snapshot(compiled, processor.memory)
    before = copy.deepcopy(snapshot)
    second = processor.run_bound().to_dict()
    assert second == first
    assert stored_snapshot(compiled, processor.memory) is snapshot
    assert snapshot == before
    assert snapshot == replayed_snapshot(compiled, processor.config)
    # The run mutated its own per-set lists, never the snapshot's.
    restored_l1 = processor.memory.l1._sets
    assert all(restored_l1[index] is not ways for index, ways in snapshot[0].items())
    # A processor that replays from scratch agrees with the restored runs.
    assert make_processor(kernel).run(fresh_trace()).to_dict() == first


def test_restore_zeroes_statistics_and_matches_replay():
    compiled = fresh_trace()
    config = ClusterConfig(num_clusters=2)
    snapshot = replayed_snapshot(compiled, config)
    memory = MemoryHierarchy.from_config(config)
    memory.load_latency(0)
    memory.restore(snapshot)
    assert memory.snapshot() == snapshot
    assert memory.l1.stats.accesses == memory.l2.stats.accesses == 0


def alternating_jobs():
    jobs = []
    for name in ("OP", "VC", "OB"):
        for overrides in ((), SMALL_L1):
            jobs.append(
                SimulationJob(
                    profile=profile_for("181.mcf"),
                    phase=0,
                    configuration=TABLE3_CONFIGURATIONS[name],
                    trace_length=600,
                    region_size=128,
                    num_clusters=2,
                    num_virtual_clusters=2,
                    config_overrides=overrides,
                )
            )
    return jobs


def per_job_dumps(jobs):
    dumps = []
    for job in jobs:
        _TRACE_MEMO.clear()  # a fresh trace per job: every warm-up replays
        dumps.append(execute_job(job))
    _TRACE_MEMO.clear()
    return dumps


@pytest.mark.parametrize("kernel", KERNELS)
def test_batch_alternating_memory_geometries_matches_per_job(monkeypatch, kernel):
    # ``execute_batch`` takes its kernel from the environment; pin it so each
    # kernel's replays are counted under its own parameter.
    monkeypatch.setenv(KERNEL_ENV, kernel)
    jobs = alternating_jobs()
    geometries = {
        MemoryHierarchy.from_config(job.machine_config()).geometry for job in jobs
    }
    assert len(geometries) == 2
    expected = per_job_dumps(jobs)
    assert expected[0] != expected[1]  # the geometries really differ

    replays = []
    original = CompiledTrace.warm_state

    def counting(self, geometry, replay):
        def counted():
            replays.append(geometry)
            return replay()

        return original(self, geometry, counted)

    monkeypatch.setattr(CompiledTrace, "warm_state", counting)
    assert execute_batch(jobs)["dumps"] == expected
    assert sorted(replays) == sorted(geometries)


@pytest.mark.parametrize("kernel", KERNELS)
def test_cold_caches_never_create_or_read_a_snapshot(monkeypatch, kernel):
    def forbidden(self, geometry, replay):
        raise AssertionError("warm_caches=False must not touch a snapshot")

    monkeypatch.setattr(CompiledTrace, "warm_state", forbidden)
    compiled = fresh_trace()
    processor = make_processor(kernel, ClusterConfig(num_clusters=2, warm_caches=False))
    processor.bind(compiled)
    cold = processor.run_bound().to_dict()
    assert processor.run_bound().to_dict() == cold
    assert not any(key.startswith("warm_") for key in compiled._cache)


def test_frozen_traces_give_unchanged_results(monkeypatch):
    jobs = alternating_jobs()
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    plain = execute_batch(jobs)["dumps"]
    _TRACE_MEMO.clear()
    monkeypatch.setenv(SANITIZE_ENV, "1")
    assert execute_batch(jobs)["dumps"] == plain
    assert per_job_dumps(jobs) == plain
