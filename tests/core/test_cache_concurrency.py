"""Concurrent stress tests for the shared PartitionCache.

One cache is shared by many threads at once (admit from readers,
invalidate from maintenance, stats from a reporter).  These tests hammer
all three entry points together and assert the accounting invariants
that only hold when every mutation is lock-protected.
"""

import threading

import pytest

from repro.core.cache import PartitionCache

N_THREADS = 8
OPS_PER_THREAD = 2000
ID_SPACE = 32


class TestConcurrentAdmit:
    def test_accounting_consistent_under_contention(self):
        cache = PartitionCache(8)
        barrier = threading.Barrier(N_THREADS)
        errors: list[BaseException] = []

        def hammer(rank: int) -> None:
            try:
                barrier.wait()
                for i in range(OPS_PER_THREAD):
                    cache.admit((rank * 7 + i * 13) % ID_SPACE)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(rank,))
            for rank in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every admit is exactly one hit or one miss — lost updates would
        # break this sum — and residency never exceeds capacity.
        assert cache.hits + cache.misses == N_THREADS * OPS_PER_THREAD
        assert len(cache.resident_ids) <= cache.capacity
        # Evictions follow from misses overflowing capacity.
        assert cache.evictions == cache.misses - len(cache.resident_ids)

    def test_admit_invalidate_stats_interleaved(self):
        cache = PartitionCache(4)
        stop = threading.Event()
        errors: list[BaseException] = []

        def admitter(rank: int) -> None:
            try:
                i = 0
                while not stop.is_set():
                    cache.admit((rank + i) % ID_SPACE)
                    i += 1
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def invalidator() -> None:
            try:
                i = 0
                while not stop.is_set():
                    cache.invalidate(i % ID_SPACE)
                    if i % 97 == 0:
                        cache.clear()
                    i += 1
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    stats = cache.stats()
                    assert 0 <= stats["resident"] <= stats["capacity"]
                    assert 0.0 <= stats["hit_rate"] <= 1.0
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = (
            [threading.Thread(target=admitter, args=(r,)) for r in range(4)]
            + [threading.Thread(target=invalidator),
               threading.Thread(target=reader)]
        )
        for t in threads:
            t.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for t in threads:
            t.join(10.0)
        timer.cancel()
        stop.set()
        assert not errors
        assert not any(t.is_alive() for t in threads)


def test_eviction_invariant_is_exact_serial():
    """Serial sanity companion to the concurrent invariant above."""
    cache = PartitionCache(3)
    for pid in range(10):
        cache.admit(pid)
    assert cache.misses == 10
    assert cache.evictions == 7
    assert cache.resident_ids == [7, 8, 9]
    with pytest.raises(ValueError):
        PartitionCache(-1)
