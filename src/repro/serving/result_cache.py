"""Keyed result cache over finished query answers.

Skewed serving traffic repeats whole *queries*, not just partitions: the
same probe series arrives from many clients.  The result cache memoizes
finished answers keyed by :meth:`QueryRequest.cache_key` — series
content digest plus the full execution plan — so identical series asked
with different ``(strategy, k, pth)`` occupy distinct entries and can
never satisfy each other (the cross-strategy regression test in
tests/serving/test_result_cache.py).

Coherence is by partition: every entry remembers which partitions
produced it, and :meth:`invalidate_partition` drops exactly the entries
touching a mutated partition.  :class:`QueryService` calls it from its
own write path (every partition an applied write touched) and after a
committed rebalance cycle (every split or created partition); writes
must therefore go through the service, never straight to the index.

Partition indexing alone is not enough for every write, though: a
Multi-Partitions Access answer may have *pruned* a partition by its
region-synopsis MINDIST bound, and a write that grows that partition's
region set can shrink the bound and change which partitions the same
query would load.  Such entries are not indexed under the pruned
partition (they never touched it), so the write path additionally calls
:meth:`invalidate_strategy` whenever an insert added a new region
prefix — region growth is rare (bounded by the coarse-region alphabet),
so the sweep almost never runs
(tests/serving/test_ingest_service.py::test_knn_cache_invalidated_by_write).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["ResultCache"]


class ResultCache:
    """LRU map from request cache key to a finished query result."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()  # key -> (result, pids)
        self._by_partition: dict[int, set] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key):
        """The cached result for ``key``, or None (counts hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key, result, partition_ids) -> None:
        """Insert an answer and index it by the partitions it touched."""
        pids = tuple(partition_ids)
        with self._lock:
            if key in self._entries:
                self._unindex(key, self._entries.pop(key)[1])
            self._entries[key] = (result, pids)
            for pid in pids:
                self._by_partition.setdefault(pid, set()).add(key)
            while len(self._entries) > self.capacity:
                old_key, (_res, old_pids) = self._entries.popitem(last=False)
                self._unindex(old_key, old_pids)
                self.evictions += 1

    def _unindex(self, key, pids) -> None:
        for pid in pids:
            keys = self._by_partition.get(pid)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_partition[pid]

    def invalidate_partition(self, partition_id: int) -> int:
        """Drop every entry derived from ``partition_id``; returns count."""
        with self._lock:
            keys = self._by_partition.pop(partition_id, set())
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is None:
                    continue
                for pid in entry[1]:
                    if pid == partition_id:
                        continue
                    other = self._by_partition.get(pid)
                    if other is not None:
                        other.discard(key)
                        if not other:
                            del self._by_partition[pid]
            self.invalidations += len(keys)
            return len(keys)

    def invalidate_strategy(self, strategy: str) -> int:
        """Drop every kNN entry planned with ``strategy``; returns count.

        Cache keys embed the plan (``(digest, length, op, strategy, k,
        pth)``), so the sweep matches on key structure alone.  Used when
        index maintenance changes *bounds* rather than contents: region
        growth and partition splits can alter which partitions a
        Multi-Partitions Access replan would select, invalidating
        answers that never loaded the mutated partition at all.
        """
        with self._lock:
            doomed = [
                key for key in self._entries
                if len(key) > 3 and key[2] == "knn" and key[3] == strategy
            ]
            for key in doomed:
                _result, pids = self._entries.pop(key)
                self._unindex(key, pids)
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_partition.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hit_rate,
            }
