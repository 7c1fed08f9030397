"""Data-cache hierarchy: set-associative L1 and L2 plus main memory.

The paper's machine has a unified (shared by all clusters) L1 data cache and
a unified L2.  Loads pay 3 cycles on an L1 hit, 13 on an L2 hit and at least
500 on a memory access (Table 2).  The model here is a standard LRU
set-associative tag array -- timing only, no data -- which is all the
steering comparison needs: what matters is that some benchmarks (mcf, art,
swim...) suffer long-latency misses that create the dynamic load imbalance
the hybrid scheme exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass
class CacheStats:
    """Hit/miss counters of one cache level."""

    accesses: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Hit rate in [0, 1] (1.0 when the cache was never accessed)."""
        return self.hits / self.accesses if self.accesses else 1.0


def _touch(cache: "SetAssociativeCache", address: int) -> bool:
    """Access ``address``; ``True`` on a hit, LRU allocation on a miss.

    The one cache access (``SetAssociativeCache.access``); the hierarchy
    calls it directly, one frame per level.
    """
    line = address // cache.line_size
    num_sets = cache.num_sets
    set_index = line % num_sets
    tag = line // num_sets
    stats = cache.stats
    stats.accesses += 1
    ways = cache._sets.get(set_index)
    if ways is None:
        cache._sets[set_index] = [tag]
        return False
    if tag in ways:
        if ways[0] != tag:
            ways.remove(tag)
            ways.insert(0, tag)
        stats.hits += 1
        return True
    ways.insert(0, tag)
    if len(ways) > cache.assoc:
        ways.pop()
    return False


class SetAssociativeCache:
    """LRU set-associative cache (tags only).

    Parameters
    ----------
    size_kb:
        Total capacity in kibibytes.
    assoc:
        Associativity (ways per set).
    line_size:
        Cache line size in bytes.
    hit_latency:
        Access latency on a hit, in cycles.
    """

    def __init__(self, size_kb: int, assoc: int, line_size: int, hit_latency: int) -> None:
        if size_kb < 1 or assoc < 1 or line_size < 1:
            raise ValueError("cache geometry parameters must be positive")
        total_lines = (size_kb * 1024) // line_size
        if total_lines < assoc:
            raise ValueError("cache too small for the requested associativity")
        self.num_sets = max(1, total_lines // assoc)
        self.assoc = int(assoc)
        self.line_size = int(line_size)
        self.hit_latency = int(hit_latency)
        # Per set: list of tags in LRU order (index 0 = most recently used).
        # Sets materialise lazily on first touch -- an absent key is an empty
        # set -- so constructing a hierarchy (every simulation run builds a
        # fresh one) does not pay for the tens of thousands of sets of an L2
        # the trace may never reach.
        self._sets: Dict[int, List[int]] = {}
        self.stats = CacheStats()

    access = _touch

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (contents are kept)."""
        self.stats = CacheStats()


class MemoryHierarchy:
    """L1 + L2 + memory; returns load latencies and records statistics.

    Parameters
    ----------
    l1 / l2:
        The two cache levels.
    memory_latency:
        Latency of an access that misses in both caches.
    """

    def __init__(self, l1: SetAssociativeCache, l2: SetAssociativeCache, memory_latency: int) -> None:
        self.l1 = l1
        self.l2 = l2
        self.memory_latency = int(memory_latency)

    @classmethod
    def from_config(cls, config) -> "MemoryHierarchy":
        """Build the hierarchy described by a :class:`~repro.cluster.config.ClusterConfig`."""
        l1 = SetAssociativeCache(
            config.l1_size_kb, config.l1_assoc, config.line_size, config.l1_hit_latency
        )
        l2 = SetAssociativeCache(
            config.l2_size_kb, config.l2_assoc, config.line_size, config.l2_hit_latency
        )
        return cls(l1, l2, config.memory_latency)

    @property
    def geometry(self) -> Tuple[int, ...]:
        """What the tag contents depend on: line size and both levels' sets x ways."""
        l1, l2 = self.l1, self.l2
        return (l1.line_size, l1.num_sets, l1.assoc, l2.line_size, l2.num_sets, l2.assoc)

    def load_latency(self, address: int) -> int:
        """Latency (cycles) of a load to ``address``, updating both levels."""
        if _touch(self.l1, address):
            return self.l1.hit_latency
        if _touch(self.l2, address):
            return self.l2.hit_latency
        return self.memory_latency

    def store_access(self, address: int) -> None:
        """Record a store (write-allocate in both levels, latency hidden by the LSQ)."""
        _touch(self.l1, address)
        _touch(self.l2, address)

    def snapshot(self) -> tuple:
        """Both levels' tags: ``{set index: tags in LRU order}`` of tuples."""
        return (
            {index: tuple(ways) for index, ways in self.l1._sets.items()},
            {index: tuple(ways) for index, ways in self.l2._sets.items()},
        )

    def restore(self, snapshot: tuple) -> None:
        """Load a :meth:`snapshot` into fresh per-set lists; zero the statistics.

        Tags are the LRU model's whole state, so this hierarchy then behaves
        exactly like the one (of the same :attr:`geometry`) it was taken from.
        """
        l1_sets, l2_sets = snapshot
        self.l1._sets = {index: list(ways) for index, ways in l1_sets.items()}
        self.l2._sets = {index: list(ways) for index, ways in l2_sets.items()}
        self.l1.reset_stats()
        self.l2.reset_stats()

    def summary(self) -> Dict[str, float]:
        """Flat statistics dictionary for reports."""
        return {
            "l1_accesses": float(self.l1.stats.accesses),
            "l1_hit_rate": self.l1.stats.hit_rate,
            "l2_accesses": float(self.l2.stats.accesses),
            "l2_hit_rate": self.l2.stats.hit_rate,
        }
