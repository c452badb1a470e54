"""Tests for the Bloom filter: the no-false-negative guarantee is what
keeps TARDIS exact-match queries correct."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import BloomFilter


class TestConstruction:
    def test_with_capacity_sizing(self):
        bf = BloomFilter.with_capacity(1000, fp_rate=0.01)
        # Optimal: m ~ 9.6 n, k ~ 7 for p = 1%.
        assert 9000 <= bf.n_bits <= 10500
        assert 6 <= bf.n_hashes <= 8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(0)
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(10, fp_rate=1.5)
        with pytest.raises(ValueError):
            BloomFilter(n_bits=0, n_hashes=1)
        with pytest.raises(ValueError):
            BloomFilter(n_bits=8, n_hashes=0)

    def test_nbytes(self):
        bf = BloomFilter(n_bits=80, n_hashes=3)
        assert bf.nbytes == 10


class TestMembership:
    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter.with_capacity(100)
        assert "anything" not in bf

    def test_added_items_found(self):
        bf = BloomFilter.with_capacity(100)
        for item in ("a", "bb", "ccc"):
            bf.add(item)
        assert "a" in bf and "bb" in bf and "ccc" in bf

    def test_bytes_and_str_are_distinct_apis(self):
        bf = BloomFilter.with_capacity(10)
        bf.add(b"\x01\x02")
        assert b"\x01\x02" in bf

    @given(st.lists(st.text(min_size=1, max_size=20), max_size=80))
    @settings(max_examples=60)
    def test_never_false_negative(self, items):
        """The load-bearing property: added items are always reported."""
        bf = BloomFilter.with_capacity(max(1, len(items)))
        for item in items:
            bf.add(item)
        for item in items:
            assert item in bf

    def test_false_positive_rate_near_target(self):
        bf = BloomFilter.with_capacity(2000, fp_rate=0.01)
        for i in range(2000):
            bf.add(f"member-{i}")
        false_hits = sum(
            f"absent-{i}" in bf for i in range(10000)
        )
        assert false_hits / 10000 < 0.03  # 3x headroom over the 1% target

    def test_estimated_fp_rate_tracks_fill(self):
        bf = BloomFilter.with_capacity(500, fp_rate=0.01)
        assert bf.estimated_fp_rate() == 0.0
        for i in range(500):
            bf.add(str(i))
        assert 0.0 < bf.estimated_fp_rate() < 0.05


class TestItemCount:
    def test_add_is_idempotent_in_count(self):
        """Re-adding an item must not inflate n_items (the docstring's
        'idempotent' promise covers the count, not just the bits)."""
        bf = BloomFilter.with_capacity(100)
        bf.add("dup")
        bits_after_first = bf.bits.copy()
        for _ in range(10):
            bf.add("dup")
        assert bf.n_items == 1
        assert (bf.bits == bits_after_first).all()

    def test_distinct_items_counted(self):
        bf = BloomFilter.with_capacity(100)
        for i in range(50):
            bf.add(f"item-{i}")
        assert bf.n_items == 50

    def test_duplicate_heavy_insert_counts_distinct(self):
        """The TARDIS pattern: every record in a leaf re-adds the same
        signature."""
        bf = BloomFilter.with_capacity(200)
        for i in range(300):
            bf.add(f"sig-{i % 3}")
        assert bf.n_items == 3


class TestUnion:
    def test_union_contains_both_sides(self):
        a = BloomFilter(n_bits=1024, n_hashes=4)
        b = BloomFilter(n_bits=1024, n_hashes=4)
        a.add("left")
        b.add("right")
        merged = a.union(b)
        assert "left" in merged and "right" in merged
        assert merged.n_items == 2

    def test_union_geometry_mismatch_raises(self):
        a = BloomFilter(n_bits=1024, n_hashes=4)
        b = BloomFilter(n_bits=512, n_hashes=4)
        with pytest.raises(ValueError, match="geometry"):
            a.union(b)

    def test_union_does_not_double_count_shared_items(self):
        """Summing the operands' counts over-reports overlap; the union
        estimates distinct items from the merged fill instead."""
        a = BloomFilter(n_bits=4096, n_hashes=4)
        b = BloomFilter(n_bits=4096, n_hashes=4)
        for i in range(20):
            a.add(f"shared-{i}")
            b.add(f"shared-{i}")
        merged = a.union(b)
        assert merged.n_items == 20  # not 40

    def test_union_count_close_for_disjoint_sides(self):
        a = BloomFilter(n_bits=8192, n_hashes=4)
        b = BloomFilter(n_bits=8192, n_hashes=4)
        for i in range(30):
            a.add(f"left-{i}")
            b.add(f"right-{i}")
        merged = a.union(b)
        # Sparse fill keeps the cardinality estimator near-exact.
        assert abs(merged.n_items - 60) <= 2

    def test_union_of_empty_filters(self):
        a = BloomFilter(n_bits=256, n_hashes=3)
        b = BloomFilter(n_bits=256, n_hashes=3)
        assert a.union(b).n_items == 0


class TestAddMany:
    """``add_many`` leaves the bits and ``n_items`` of adds one at a time."""

    @staticmethod
    def _sequential(bf, items):
        """Reference: the one-item insert, counting an item iff it set a
        bit that was clear."""
        import numpy as np

        from repro.bloom.bloom_filter import _digest_pair

        i = np.arange(bf.n_hashes, dtype=np.uint64)
        for item in items:
            h1, h2 = _digest_pair(item)
            positions = (h1 + i * h2) % np.uint64(bf.n_bits)
            mask = (1 << (positions & 7)).astype(np.uint8)
            if bool(np.all(bf.bits[positions >> 3] & mask)):
                continue
            np.bitwise_or.at(bf.bits, positions >> 3, mask)
            bf.n_items += 1

    items = st.lists(
        st.one_of(st.text(alphabet="abc", max_size=3), st.binary(max_size=2)),
        max_size=30,
    )

    @given(
        n_bits=st.integers(8, 48), n_hashes=st.integers(1, 5),
        prefill=items, batch=items,
    )
    @settings(max_examples=200)
    def test_equals_one_at_a_time(self, n_bits, n_hashes, prefill, batch):
        many, loop, reference = (
            BloomFilter(n_bits=n_bits, n_hashes=n_hashes) for _ in range(3)
        )
        for bf in (many, loop, reference):
            self._sequential(bf, prefill)
        many.add_many(batch)
        for item in batch:
            loop.add(item)
        self._sequential(reference, batch)
        for bf in (many, loop):
            assert bf.bits.tobytes() == reference.bits.tobytes()
            assert bf.n_items == reference.n_items

    def test_duplicates_and_collisions_count_once(self):
        bf = BloomFilter(n_bits=8, n_hashes=2)
        bf.add_many(["x", "x", b"x", "y"])
        reference = BloomFilter(n_bits=8, n_hashes=2)
        self._sequential(reference, ["x", "x", b"x", "y"])
        assert bf.n_items == reference.n_items <= 2
        assert bf.bits.tobytes() == reference.bits.tobytes()

    def test_empty_batch_changes_nothing(self):
        bf = BloomFilter(n_bits=64, n_hashes=3)
        bf.add("seed")
        before = (bf.bits.tobytes(), bf.n_items)
        bf.add_many([])
        assert (bf.bits.tobytes(), bf.n_items) == before
