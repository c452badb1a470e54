"""LRU partition caching: the "hot data in memory" the paper leans on.

The paper chooses Spark partly for "its efficient main memory caching of
intermediate data and the flexibility it offers for caching hot data"
(§VI-A).  In query processing that matters when workloads are skewed: the
same few partitions are hit over and over, and a worker that keeps them
resident answers without the block-load latency that otherwise dominates
(Figs. 14-16).

:class:`PartitionCache` models exactly that: an LRU set of partitions
whose loads cost nothing while resident.  Attach one to an index with
:meth:`TardisIndex.enable_cache`; every query strategy picks it up
automatically because all loads funnel through ``load_partition``.

The cache belongs to the reproduction plane (``benchmarks/`` and the
accounting tests): in real execution every partition is already in
memory, so neither the CLI nor the serving tier attaches one.

Every access also updates hit/miss/eviction statistics — locally on the
cache (``stats()``, surfaced by :meth:`TardisIndex.cache_stats`) and on
the shared telemetry registry (``partition_cache_*_total`` counters).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..telemetry.metrics import get_registry

__all__ = ["PartitionCache"]


@dataclass
class PartitionCache:
    """An LRU cache over partition ids with hit/miss/eviction accounting.

    Thread-safe: one cache may be shared across threads (a server's
    batcher and rebalancer, concurrent library callers), so residency
    updates and statistics are guarded by a lock.
    """

    capacity: int
    _resident: OrderedDict = field(default_factory=OrderedDict)
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")

    def admit(self, partition_id: int) -> bool:
        """Record an access; True if it hit (no load charge needed).

        Misses insert the partition, evicting the least recently used
        resident when over capacity.
        """
        registry = get_registry()
        with self._lock:
            hit = partition_id in self._resident
            evicted = False
            if hit:
                self._resident.move_to_end(partition_id)
                self.hits += 1
            else:
                self.misses += 1
                self._resident[partition_id] = True
                evicted = len(self._resident) > self.capacity
                if evicted:
                    self._resident.popitem(last=False)
                    self.evictions += 1
        if hit:
            registry.counter(
                "partition_cache_hits_total",
                "Partition loads answered from the LRU cache",
            ).inc()
            return True
        registry.counter(
            "partition_cache_misses_total",
            "Partition loads that missed the LRU cache",
        ).inc()
        if evicted:
            registry.counter(
                "partition_cache_evictions_total",
                "Residents evicted from the LRU cache",
            ).inc()
        return False

    def invalidate(self, partition_id: int) -> None:
        """Drop a partition (e.g. after maintenance mutated it on disk)."""
        with self._lock:
            self._resident.pop(partition_id, None)

    def clear(self) -> None:
        with self._lock:
            self._resident.clear()

    @property
    def resident_ids(self) -> list[int]:
        """Partition ids currently cached, LRU first."""
        with self._lock:
            return list(self._resident)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Snapshot of the cache's accounting, for reports."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._resident),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }
