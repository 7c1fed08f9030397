#!/usr/bin/env python
"""Regenerate the golden-metrics snapshot used by tests/test_golden_metrics.py.

The golden file pins the exact simulator output (IPC, copy-µop count,
inter-cluster traffic, commit count, cycles and per-cluster distributions)
for two small fixed-seed benchmark/configuration pairs.  Any change to the
trace generator, the compile-time passes or the cycle-level simulator that
shifts these counters will fail the regression test -- which is the point:
behaviour changes must be deliberate.

Run from the repository root after an *intentional* behaviour change::

    PYTHONPATH=src python scripts/regenerate_golden_metrics.py

then inspect the diff of ``tests/golden/golden_metrics.json`` and commit it
together with the change that motivated it (mention why in the commit
message), with ``CACHE_SCHEMA_VERSION`` bumped and the printed hash added
under the new version to ``GOLDEN_METRICS_SHA256`` in
``src/repro/engine/job.py`` -- changed goldens make every cached result stale.
The test also re-derives the snapshot through the experiment engine, so
regeneration never needs different flags for serial/parallel runs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.job import CACHE_SCHEMA_VERSION, GOLDEN_METRICS_SHA256  # noqa: E402
from repro.experiments.golden import GOLDEN_PATH, compute_golden_snapshot  # noqa: E402


def main() -> int:
    snapshot = compute_golden_snapshot()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(snapshot['cases'])} golden cases to {GOLDEN_PATH}")
    digest = hashlib.sha256(GOLDEN_PATH.read_bytes()).hexdigest()
    if digest != GOLDEN_METRICS_SHA256.get(CACHE_SCHEMA_VERSION):
        print(
            f"goldens changed: bump CACHE_SCHEMA_VERSION to {CACHE_SCHEMA_VERSION + 1} "
            f"and add {CACHE_SCHEMA_VERSION + 1}: {digest!r} to GOLDEN_METRICS_SHA256 "
            "in src/repro/engine/job.py"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
