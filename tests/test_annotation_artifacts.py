"""Annotation artifacts: compile-time pass output persisted in the trace store.

Four contracts are pinned here:

* **A hit replaces the pass, bit for bit.**  Every execution path (serial,
  pickle, shared memory) stores a pass's annotations on a miss and applies
  them on a hit without calling ``RegionPartitioner.annotate_program``;
  dumps equal a store-less run, and annotation traffic has its own counters.
* **The passes' output is pinned.**  A digest over every builtin pass on a
  fixed corpus is committed beside ``ANNOTATION_FORMAT_VERSION``; changing a
  pass's output fails here until both are updated together.
* **Faults degrade to a recompute.**  Truncated, foreign, misshapen,
  out-of-range, stale and raced files end as a miss, a recompute and a
  rewrite -- never wrong annotations, never leftover temporary files.
* **Hardware-only jobs see no stale bindings** from an earlier pass over the
  same memoized program.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.slack import compute_slack
from repro.engine.artifacts import (
    ANNOTATION_DIGEST,
    ANNOTATION_FORMAT_VERSION,
    ANNOTATION_SUFFIX,
    TraceArtifactStore,
    annotation_columns,
)
from repro.engine.job import SimulationJob
from repro.engine.parallel import (
    _TRACE_MEMO,
    ParallelRunner,
    _prepare_job,
    _trace_for,
    execute_batch,
)
from repro.experiments.configs import TABLE3_CONFIGURATIONS, vc_variant
from repro.partition import (
    MultilevelPartitioner,
    OperationBasedPartitioner,
    RegionPartitioner,
    RhopPartitioner,
    VirtualClusterPartitioner,
)
from repro.program.ddg import build_ddg
from repro.program.regions import form_regions
from repro.uops.compiled import NO_ANNOTATION
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for

REPO_ROOT = Path(__file__).resolve().parents[1]

CONFIGURATIONS = [
    TABLE3_CONFIGURATIONS["OP"],
    TABLE3_CONFIGURATIONS["OB"],
    TABLE3_CONFIGURATIONS["RHOP"],
    TABLE3_CONFIGURATIONS["VC"],
    vc_variant("VC(4->4)", 4),
]

#: Digest corpus: profiles (int and fp), cluster counts and region sizes.
CORPUS_PROFILES = ("164.gzip-1", "181.mcf", "178.galgel", "171.swim")
CORPUS_CLUSTERS = (2, 4)
CORPUS_REGION_SIZES = (32, 128)


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    """Isolate every test from the per-process trace memo."""
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


def make_job(profile, configuration, phase=0, trace_length=500, **overrides):
    defaults = dict(
        profile=profile,
        phase=phase,
        configuration=configuration,
        trace_length=trace_length,
        region_size=128,
        num_clusters=2,
        num_virtual_clusters=2,
    )
    defaults.update(overrides)
    return SimulationJob(**defaults)


def corpus_digest() -> str:
    """SHA-256 over every builtin pass's annotations on the guard corpus."""
    digest = hashlib.sha256()
    for name in CORPUS_PROFILES:
        program, _ = WorkloadGenerator(profile_for(name)).generate_compiled_trace(400, phase=0)
        for region_size in CORPUS_REGION_SIZES:
            passes = [
                VirtualClusterPartitioner(num_virtual_clusters=2, region_size=region_size),
                VirtualClusterPartitioner(num_virtual_clusters=4, region_size=region_size),
            ]
            for clusters in CORPUS_CLUSTERS:
                passes.append(OperationBasedPartitioner(num_clusters=clusters, region_size=region_size))
                passes.append(RhopPartitioner(num_clusters=clusters, region_size=region_size))
            for partitioner in passes:
                partitioner.annotate_program(program)
                label = f"{name}/{region_size}/{partitioner.name}/{partitioner.num_targets}"
                digest.update(label.encode("utf-8"))
                digest.update(annotation_columns(program).tobytes())
            # The multilevel engine on a part count that is not a power of two.
            for region in form_regions(program, max_instructions=region_size):
                ddg = build_ddg(region.instructions)
                slack = compute_slack(ddg)
                parts = MultilevelPartitioner(3).partition(
                    [slack.node_weight(node) for node in range(len(ddg))],
                    {edge: slack.edge_weight(edge) for edge in ddg.edge_latency},
                    node_groups=[inst.block for inst in ddg.instructions],
                )
                digest.update(np.array(parts, dtype=np.int32).tobytes())
    return digest.hexdigest()


def annotation_files(root: Path):
    return sorted(root.rglob(f"*{ANNOTATION_SUFFIX}"))


def forbid_passes(monkeypatch):
    """Make any compile-time pass fail the test (hits must not run one)."""

    def refuse(self, program):
        raise AssertionError(f"{self.name} pass ran on an annotation hit")

    monkeypatch.setattr(RegionPartitioner, "annotate_program", refuse)


# ---------------------------------------------------------------------------
# The digest guard
# ---------------------------------------------------------------------------


class TestPassDigest:
    def test_builtin_passes_match_the_committed_digest(self):
        assert corpus_digest() == ANNOTATION_DIGEST, (
            "a builtin compile-time pass changed its output: bump "
            f"ANNOTATION_FORMAT_VERSION (now {ANNOTATION_FORMAT_VERSION}) and "
            "update ANNOTATION_DIGEST in repro/engine/artifacts.py together"
        )


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


class TestAnnotationKey:
    def test_key_covers_every_input_of_the_pass(self, small_profile):
        base = make_job(small_profile, TABLE3_CONFIGURATIONS["VC"])
        variants = [
            make_job(small_profile, TABLE3_CONFIGURATIONS["VC"], phase=1),
            make_job(small_profile, TABLE3_CONFIGURATIONS["VC"], num_clusters=4),
            make_job(small_profile, TABLE3_CONFIGURATIONS["VC"], num_virtual_clusters=4),
            make_job(small_profile, TABLE3_CONFIGURATIONS["VC"], region_size=32),
            make_job(small_profile, TABLE3_CONFIGURATIONS["OB"]),
            make_job(
                small_profile,
                replace(TABLE3_CONFIGURATIONS["VC"], partitioner_params={"communication_latency": 3}),
            ),
        ]
        keys = {job.annotation_key() for job in variants}
        assert len(keys) == len(variants)
        assert base.annotation_key() not in keys

    def test_run_time_knobs_share_a_key(self, small_profile):
        """The policy and the machine overrides do not change the pass output."""
        vc = make_job(small_profile, TABLE3_CONFIGURATIONS["VC"])
        overridden = make_job(
            small_profile, TABLE3_CONFIGURATIONS["VC"], config_overrides=(("link_latency", 4),)
        )
        pinned = make_job(small_profile, vc_variant("VC(2->2)", 2))
        assert vc.annotation_key() == overridden.annotation_key() == pinned.annotation_key()
        # VC(4->4) on a 2-VC setting is VC on a 4-VC setting.
        assert (
            make_job(small_profile, vc_variant("VC(4->4)", 4)).annotation_key()
            == make_job(small_profile, TABLE3_CONFIGURATIONS["VC"], num_virtual_clusters=4).annotation_key()
        )


# ---------------------------------------------------------------------------
# Hits replace the pass
# ---------------------------------------------------------------------------


class TestStoredAnnotations:
    def test_warm_batch_skips_every_pass(self, tmp_path, small_profile, monkeypatch):
        jobs = [make_job(small_profile, c) for c in CONFIGURATIONS]
        reference = execute_batch(jobs)["dumps"]
        root = tmp_path / "traces"

        cold = execute_batch(jobs, trace_root=str(root))
        assert cold["dumps"] == reference
        assert cold["trace_stats"] == {"hits": 0, "misses": 1, "stores": 1}
        assert cold["annotation_stats"] == {"hits": 0, "misses": 4, "stores": 4}
        assert len(annotation_files(root)) == 4
        # Trace globs never see annotation artifacts.
        assert len(sorted(root.rglob("*.npz"))) == 1

        _TRACE_MEMO.clear()
        forbid_passes(monkeypatch)
        warm = execute_batch(jobs, trace_root=str(root))
        assert warm["dumps"] == reference
        assert warm["trace_stats"] == {"hits": 1, "misses": 0, "stores": 0}
        assert warm["annotation_stats"] == {"hits": 4, "misses": 0, "stores": 0}

    def test_serial_runner_counts_annotations_apart(self, tmp_path, small_profile):
        jobs = [make_job(small_profile, c) for c in CONFIGURATIONS]
        reference = [m.to_dict() for m in ParallelRunner(trace_root=None).run(jobs)]
        runner = ParallelRunner(trace_root=tmp_path / "traces")
        assert [m.to_dict() for m in runner.run(jobs)] == reference
        assert runner.trace_stats() == {"hits": 0, "misses": 1, "stores": 1}
        assert runner.annotation_stats() == {"hits": 0, "misses": 4, "stores": 4}
        _TRACE_MEMO.clear()
        assert [m.to_dict() for m in runner.run(jobs)] == reference
        assert runner.trace_stats() == {"hits": 1, "misses": 1, "stores": 1}
        assert runner.annotation_stats() == {"hits": 4, "misses": 4, "stores": 4}

    @pytest.mark.parametrize("shared_memory", [True, False])
    def test_workers_share_the_store(self, tmp_path, small_profile, shared_memory):
        jobs = [make_job(small_profile, c, phase=p) for p in (0, 1) for c in CONFIGURATIONS]
        reference = [m.to_dict() for m in ParallelRunner(trace_root=None).run(jobs)]
        root = tmp_path / "traces"
        with ParallelRunner(max_workers=2, trace_root=root, shared_memory=shared_memory) as cold:
            assert [m.to_dict() for m in cold.run(jobs)] == reference
            assert cold.trace_stats() == {"hits": 0, "misses": 2, "stores": 2}
            assert cold.annotation_stats() == {"hits": 0, "misses": 8, "stores": 8}
        _TRACE_MEMO.clear()
        with ParallelRunner(max_workers=2, trace_root=root, shared_memory=shared_memory) as warm:
            assert [m.to_dict() for m in warm.run(jobs)] == reference
            assert warm.trace_stats() == {"hits": 2, "misses": 0, "stores": 0}
            assert warm.annotation_stats() == {"hits": 8, "misses": 0, "stores": 0}

    def test_hit_restores_the_exact_annotations(self, tmp_path, small_profile):
        job = make_job(small_profile, TABLE3_CONFIGURATIONS["VC"])
        program, _ = _trace_for(job)
        partitioner = job.configuration.make_partitioner(2, 2, 128)
        partitioner.annotate_program(program)
        expected = annotation_columns(program)
        store = TraceArtifactStore(tmp_path)
        store.put_annotations("k" * 64, program)
        program.clear_annotations()
        assert store.get_annotations("k" * 64, program, partitioner.num_targets)
        np.testing.assert_array_equal(annotation_columns(program), expected)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def _rewrite(path: Path, save, *args, **kwargs) -> None:
    with path.open("wb") as handle:  # a handle: np.save would append ".npy"
        save(handle, *args, **kwargs)


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-7])


def _text(path: Path) -> None:
    path.write_text("not an annotation artifact")


def _broken_zip(path: Path) -> None:
    path.write_bytes(b"PK\x03\x04 not an annotation artifact")


def _npz_archive(path: Path) -> None:
    _rewrite(path, np.savez, annotations=np.load(path))


def _wrong_length(path: Path) -> None:
    _rewrite(path, np.save, np.concatenate((np.load(path), np.zeros(3, dtype=np.int32))))


def _wrong_dtype(path: Path) -> None:
    _rewrite(path, np.save, np.load(path).astype(np.int64))


def _out_of_range(path: Path) -> None:
    data = np.load(path)
    data[1] = 9  # the first instruction's vc_id
    _rewrite(path, np.save, data)


def _bad_leader_mark(path: Path) -> None:
    data = np.load(path)
    count = (len(data) - 1) // 3
    data[1 + count] = 2  # the first instruction's chain_leader
    _rewrite(path, np.save, data)


def _stale_version(path: Path) -> None:
    data = np.load(path)
    data[0] = ANNOTATION_FORMAT_VERSION + 1
    _rewrite(path, np.save, data)


class TestAnnotationFaults:
    @pytest.mark.parametrize(
        "corrupt",
        [
            _truncate,
            _text,
            _broken_zip,
            _npz_archive,
            _wrong_length,
            _wrong_dtype,
            _out_of_range,
            _bad_leader_mark,
            _stale_version,
        ],
    )
    def test_corrupt_artifact_is_a_miss_then_a_rewrite(self, tmp_path, small_profile, corrupt):
        job = make_job(small_profile, TABLE3_CONFIGURATIONS["VC"])
        reference = execute_batch([job])["dumps"]
        root = tmp_path / "traces"
        assert execute_batch([job], trace_root=str(root))["dumps"] == reference
        (artifact,) = annotation_files(root)
        corrupt(artifact)

        _TRACE_MEMO.clear()
        degraded = execute_batch([job], trace_root=str(root))
        assert degraded["dumps"] == reference
        assert degraded["annotation_stats"] == {"hits": 0, "misses": 1, "stores": 1}

        _TRACE_MEMO.clear()
        healed = execute_batch([job], trace_root=str(root))
        assert healed["dumps"] == reference
        assert healed["annotation_stats"] == {"hits": 1, "misses": 0, "stores": 0}
        assert not sorted(root.rglob("*.tmp"))

    def test_racing_writers_leave_one_whole_artifact(self, tmp_path, small_profile):
        job = make_job(small_profile, TABLE3_CONFIGURATIONS["RHOP"])
        program, _ = _trace_for(job)
        partitioner = job.configuration.make_partitioner(2, 2, 128)
        partitioner.annotate_program(program)
        expected = annotation_columns(program)
        key = job.annotation_key()
        writers = [TraceArtifactStore(tmp_path) for _ in range(2)]
        reader = TraceArtifactStore(tmp_path)
        probe, _ = WorkloadGenerator(small_profile).generate_compiled_trace(500, phase=0)
        seen = []

        def write(store):
            for _ in range(25):
                store.put_annotations(key, program)

        def read():
            for _ in range(50):
                probe.clear_annotations()
                if reader.get_annotations(key, probe, partitioner.num_targets):
                    seen.append(annotation_columns(probe))

        threads = [threading.Thread(target=write, args=(w,)) for w in writers]
        threads.append(threading.Thread(target=read))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every read was a miss (before the first rename) or the whole artifact.
        assert reader.annotation_hits + reader.annotation_misses == 50
        for columns in seen:
            np.testing.assert_array_equal(columns, expected)
        assert len(annotation_files(tmp_path)) == 1
        assert not sorted(tmp_path.rglob("*.tmp"))
        program.clear_annotations()
        assert reader.get_annotations(key, program, partitioner.num_targets)
        np.testing.assert_array_equal(annotation_columns(program), expected)


class TestSharedRegions:
    def test_passes_share_regions_per_program_and_size(self, small_profile, monkeypatch):
        import repro.partition.base as base

        calls = []
        real = base.form_regions
        monkeypatch.setattr(
            base, "form_regions", lambda program, **kw: calls.append(kw) or real(program, **kw)
        )
        program, _ = WorkloadGenerator(small_profile).generate_compiled_trace(500, phase=0)
        for _ in range(2):
            OperationBasedPartitioner(num_clusters=2).annotate_program(program)
            RhopPartitioner(num_clusters=4).annotate_program(program)
            VirtualClusterPartitioner(num_virtual_clusters=2).annotate_program(program)
        VirtualClusterPartitioner(num_virtual_clusters=2, region_size=32).annotate_program(program)
        assert calls == [{"max_instructions": 128}, {"max_instructions": 32}]


# ---------------------------------------------------------------------------
# Stale annotations between the jobs of a batch
# ---------------------------------------------------------------------------


class TestStaleAnnotations:
    @pytest.mark.parametrize("with_store", [False, True])
    def test_hardware_only_job_after_a_binding_pass(self, tmp_path, small_profile, with_store):
        """OB binds every instruction; a following OP job must see none of it."""
        store = TraceArtifactStore(tmp_path) if with_store else None
        ob = make_job(small_profile, TABLE3_CONFIGURATIONS["OB"])
        op = make_job(small_profile, TABLE3_CONFIGURATIONS["OP"])
        for _ in range(2 if with_store else 1):  # second round: OB from a hit
            program, compiled = _trace_for(ob, store=store)
            _prepare_job(ob, program, compiled, store)
            assert (compiled.static_cluster != NO_ANNOTATION).all()
            _prepare_job(op, program, compiled, store)
            assert (compiled.static_cluster == NO_ANNOTATION).all()
            assert (compiled.vc_id == NO_ANNOTATION).all()
            assert not compiled.chain_leader.any()


# ---------------------------------------------------------------------------
# Import cost
# ---------------------------------------------------------------------------


def test_engine_import_leaves_networkx_out():
    """networkx is needed only by the ``to_networkx()`` exports."""
    code = "import sys, repro.engine.parallel; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
