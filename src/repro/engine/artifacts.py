"""Content-addressed on-disk store of compiled traces and pass annotations.

Trace generation -- synthesising the static program and expanding the
dynamic µop stream -- is the second-most expensive step of a simulation job
after the simulation itself, and it is *shared*: every configuration of a
``(benchmark, phase)`` pair consumes the exact same stream (the paper's
methodology).  :class:`TraceArtifactStore` makes that stream a durable
artifact: one ``.npz`` file per :meth:`SimulationJob.trace_key
<repro.engine.job.SimulationJob.trace_key>`, holding the
:class:`~repro.uops.compiled.CompiledTrace` columns plus the pickled static
program, stored under ``<root>/<key[:2]>/<key>.npz``.  Parallel workers (and
later invocations, sweeps, figure reruns) load the artifact instead of
regenerating the trace; the per-process ``_TRACE_MEMO`` in
:mod:`repro.engine.parallel` is just a thin in-memory layer over this store.

Trace artifacts are independent of the steering configuration: the
µop-class-derived columns (latency, queue routing) are recomputed on load,
and annotation columns are refreshed per job via
:meth:`CompiledTrace.annotate_from`.  What invalidates a trace artifact --
changes to the workload synthesis itself -- is exactly what
:meth:`trace_key` covers (profile, phase, length, register space and the
engine schema version), plus :data:`TRACE_ARTIFACT_VERSION` for layout
changes.

The compile-time passes are stored too.  A pass's output is a fixed
function of the program it annotates, so an **annotation artifact**
(``<root>/<key[:2]>/<key>.ann``, one pickle-free int32 ``.npy`` array: the
format version, then the ``vc_id``, ``chain_leader`` and ``static_cluster``
columns) records every static instruction's annotations in
:meth:`Program.all_instructions
<repro.program.program.Program.all_instructions>` order, with
:data:`~repro.uops.compiled.NO_ANNOTATION` for ``None``.  Its key
(:meth:`SimulationJob.annotation_key
<repro.engine.job.SimulationJob.annotation_key>`) covers the trace key, the
partitioner's registry name and parameters, the cluster count, the
effective virtual-cluster count, the region size and
:data:`ANNOTATION_FORMAT_VERSION`.  The key cannot see a pass's *code*, so
that constant must be bumped whenever a builtin pass changes its output:
the committed :data:`ANNOTATION_DIGEST` beside it hashes every builtin
pass's annotations over a fixed corpus, and its test fails until both are
updated together.

Writes are atomic (temporary sibling + ``os.replace``) so concurrent workers
sharing one cache directory race benignly; corrupt, truncated,
wrongly-shaped, out-of-range or version-mismatched files are treated as
misses and rewritten.

Security note: the program half of a trace artifact is a pickle, so
artifacts are trusted local cache state (the same trust level as the result
cache), not an interchange format.  Annotation artifacts hold integer
arrays only and are always loaded with ``allow_pickle=False``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import zipfile
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.program.program import Program
from repro.uops.compiled import NO_ANNOTATION, CompiledTrace

#: Bump when the artifact layout changes (stored columns, program pickling).
TRACE_ARTIFACT_VERSION = 1

#: Bump when a builtin compile-time pass changes its output or the annotation
#: artifact layout changes; stale annotation artifacts then become misses.
ANNOTATION_FORMAT_VERSION = 1

#: SHA-256 of every builtin pass's annotations over the guard corpus of
#: ``tests/test_annotation_artifacts.py``.  Update it only together with
#: :data:`ANNOTATION_FORMAT_VERSION`.
ANNOTATION_DIGEST = "7c7b2f89b6c8806b6e6706f431a9835acf36a9b93bb1e9dfa1d12f0c3160162f"

#: File suffix of annotation artifacts (not ``.npz``, so trace globs skip them).
ANNOTATION_SUFFIX = ".ann"


def annotation_columns(program: Program) -> np.ndarray:
    """``program``'s annotations as a ``(3, n)`` int32 array.

    Rows are ``vc_id``, ``chain_leader`` and ``static_cluster``; columns
    follow ``program.all_instructions()``; ``None`` is
    :data:`~repro.uops.compiled.NO_ANNOTATION`.
    """
    rows: List[Tuple[int, int, int]] = [
        (
            NO_ANNOTATION if inst.vc_id is None else inst.vc_id,
            int(inst.chain_leader),
            NO_ANNOTATION if inst.static_cluster is None else inst.static_cluster,
        )
        for inst in program.all_instructions()
    ]
    return np.array(rows, dtype=np.int32).reshape(-1, 3).T


def _write_atomic(path: Path, write: Callable[[BinaryIO], None]) -> None:
    """Run ``write`` on a temporary sibling of ``path``, then move it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class TraceArtifactStore:
    """Directory-backed map from trace keys to ``(program, compiled trace)``,
    and from annotation keys to one compile-time pass's output.

    Parameters
    ----------
    root:
        Artifact directory; created on first write.  The engine defaults to
        ``<result-cache>/traces`` so one ``--cache-dir`` governs both caches.

    Attributes
    ----------
    hits / misses / stores:
        Running trace-artifact counters, exposed for the CLI footer and the
        tests.
    annotation_hits / annotation_misses / annotation_stores:
        The same counters for annotation artifacts (:meth:`annotation_stats`).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.annotation_hits = 0
        self.annotation_misses = 0
        self.annotation_stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    def _annotation_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{ANNOTATION_SUFFIX}"

    def get(self, key: str) -> Optional[Tuple[Program, CompiledTrace]]:
        """Load the artifact for ``key``, or ``None`` on any kind of miss."""
        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["artifact_version"][0]) != TRACE_ARTIFACT_VERSION:
                    raise ValueError("trace artifact version mismatch")
                trace = CompiledTrace(
                    **{name: data[name] for name in CompiledTrace.STORED_FIELDS}
                )
                program = pickle.loads(data["program_pickle"].tobytes())
        except (OSError, ValueError, KeyError, TypeError, EOFError, IndexError,
                AttributeError, ImportError, zipfile.BadZipFile,
                pickle.UnpicklingError):
            # Missing, corrupt, truncated or incompatible artifact: a miss.
            # IndexError covers out-of-range opclass codes hitting the derived
            # lookup tables; AttributeError/ImportError cover program pickles
            # written by builds whose classes have since moved or changed.
            self.misses += 1
            return None
        self.hits += 1
        return program, trace

    def put(self, key: str, program: Program, trace: CompiledTrace) -> None:
        """Store ``(program, trace)`` under ``key`` (atomic, last-writer-wins)."""
        payload = dict(trace.stored_columns())
        payload["program_pickle"] = np.frombuffer(
            pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
        )
        payload["artifact_version"] = np.array([TRACE_ARTIFACT_VERSION], dtype=np.int64)
        _write_atomic(self._path(key), lambda handle: np.savez_compressed(handle, **payload))
        self.stores += 1

    def get_annotations(self, key: str, program: Program, num_targets: int) -> bool:
        """Apply the annotation artifact for ``key`` to ``program``.

        Returns ``False`` -- leaving ``program`` untouched -- on any kind of
        miss: a missing, unreadable or stale-version file, columns whose
        length is not ``program``'s instruction count, or a target outside
        ``[0, num_targets)``.
        """
        instructions = list(program.all_instructions())
        try:
            data = np.load(self._annotation_path(key), allow_pickle=False)
            if not isinstance(data, np.ndarray):
                data.close()  # an .npz archive, not an annotation array
                raise ValueError("not an annotation artifact")
            if data.dtype != np.int32 or data.shape != (1 + 3 * len(instructions),):
                raise ValueError("annotation columns do not fit the program")
            if int(data[0]) != ANNOTATION_FORMAT_VERSION:
                raise ValueError("annotation artifact version mismatch")
            vc_id, leader, static_cluster = data[1:].reshape(3, len(instructions))
            for targets in (vc_id, static_cluster):
                if np.any((targets != NO_ANNOTATION) & ((targets < 0) | (targets >= num_targets))):
                    raise ValueError("annotation target out of range")
            if np.any((leader != 0) & (leader != 1)):
                raise ValueError("chain-leader mark is not a flag")
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
            self.annotation_misses += 1
            return False
        for inst, vc, lead, static in zip(
            instructions, vc_id.tolist(), leader.tolist(), static_cluster.tolist()
        ):
            inst.vc_id = None if vc == NO_ANNOTATION else vc
            inst.chain_leader = bool(lead)
            inst.static_cluster = None if static == NO_ANNOTATION else static
        self.annotation_hits += 1
        return True

    def put_annotations(self, key: str, program: Program) -> None:
        """Store ``program``'s current annotations under ``key`` (atomic)."""
        header = np.array([ANNOTATION_FORMAT_VERSION], dtype=np.int32)
        flat = np.concatenate((header, annotation_columns(program).ravel()))
        _write_atomic(self._annotation_path(key), lambda handle: np.save(handle, flat))
        self.annotation_stores += 1

    def stats(self) -> Dict[str, int]:
        """Trace-artifact hit/miss/store counters as a plain dictionary."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def annotation_stats(self) -> Dict[str, int]:
        """Annotation-artifact hit/miss/store counters as a plain dictionary."""
        return {
            "hits": self.annotation_hits,
            "misses": self.annotation_misses,
            "stores": self.annotation_stores,
        }

    def stats_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since a previous :meth:`stats` snapshot.

        Worker processes keep one long-lived store per root whose counters
        accumulate across tasks; a task that wants to report *its own*
        traffic snapshots the counters on entry and returns the delta, which
        the parent then sums into its run-level totals (the CLI ``[traces]``
        footer).  Deltas are safe to add across tasks and processes;
        cumulative counters are not.
        """
        return {name: value - snapshot.get(name, 0) for name, value in self.stats().items()}
