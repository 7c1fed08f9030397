"""Re-recorded golden metrics cannot ship without a result-cache schema bump.

Result-cache keys cover simulation inputs only, so a change of simulator
behaviour is invisible to them; ``CACHE_SCHEMA_VERSION`` is what retires the
stale entries.  The golden metrics record that behaviour, and
``GOLDEN_METRICS_SHA256`` records, per schema version, which goldens that
version was set for: when the goldens change, the current version's entry no
longer matches, and since no two versions may record the same hash, the only
fix is a new version with a new entry, in the same commit.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

from repro.engine.job import CACHE_SCHEMA_VERSION, GOLDEN_METRICS_SHA256
from repro.experiments.golden import GOLDEN_PATH


def stale_schema(golden_path: Path) -> Optional[str]:
    """Why the recorded hash does not cover ``golden_path`` (``None`` if it does)."""
    digest = hashlib.sha256(golden_path.read_bytes()).hexdigest()
    if digest == GOLDEN_METRICS_SHA256.get(CACHE_SCHEMA_VERSION):
        return None
    return (
        f"{golden_path.name} changed (sha256 {digest}) but GOLDEN_METRICS_SHA256 "
        f"records other goldens for cache schema {CACHE_SCHEMA_VERSION}: bump "
        "CACHE_SCHEMA_VERSION and record the new hash under the new version "
        "in src/repro/engine/job.py"
    )


def test_recorded_hash_covers_the_committed_goldens():
    assert stale_schema(GOLDEN_PATH) is None, stale_schema(GOLDEN_PATH)


def test_every_schema_version_records_distinct_goldens():
    hashes = list(GOLDEN_METRICS_SHA256.values())
    assert len(set(hashes)) == len(hashes), "goldens changed without a schema bump"


def test_changed_goldens_are_flagged(tmp_path):
    changed = tmp_path / GOLDEN_PATH.name
    changed.write_bytes(GOLDEN_PATH.read_bytes().replace(b"1", b"2", 1))
    assert "bump CACHE_SCHEMA_VERSION" in stale_schema(changed)
