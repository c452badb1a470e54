"""Tests for the sigTree: insertion, splitting, statistics mode, and
structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isaxt import encode_symbols
from repro.core.sigtree import SigTree


def sig(symbols, bits=4, w=4):
    return encode_symbols(np.array(symbols, dtype=np.uint32), bits)


def make_tree(threshold=2, max_bits=4, w=4) -> SigTree:
    return SigTree(word_length=w, max_bits=max_bits, split_threshold=threshold)


class TestInsertEntry:
    def test_single_insert_creates_first_layer_leaf(self):
        tree = make_tree()
        leaf = tree.insert_entry((sig([1, 2, 3, 4]), 0))
        assert leaf.layer == 1
        assert leaf.is_leaf
        assert tree.root.count == 1

    def test_counts_along_path(self):
        tree = make_tree(threshold=10)
        for i in range(5):
            tree.insert_entry((sig([1, 2, 3, 4]), i))
        assert tree.root.count == 5
        (child,) = tree.root.children.values()
        assert child.count == 5

    def test_split_on_overflow(self):
        tree = make_tree(threshold=2)
        # Same 1-bit prefix, differing at 2-bit layer -> split distributes.
        entries = [sig([0b0000, 0b0100, 0b1000, 0b1100]),
                   sig([0b0001, 0b0101, 0b1001, 0b1101]),
                   sig([0b0111, 0b0011, 0b1111, 0b1011])]
        for i, s in enumerate(entries):
            tree.insert_entry((s, i))
        first_layer = list(tree.root.children.values())
        assert len(first_layer) == 1  # all share the 1-bit prefix
        assert not first_layer[0].is_leaf  # it split
        assert first_layer[0].count == 3
        assert sum(len(l.entries) for l in tree.leaves()) == 3

    def test_cascading_split_with_identical_prefixes(self):
        """Entries identical at every layer cascade to max depth and stay."""
        tree = make_tree(threshold=2, max_bits=4)
        s = sig([5, 6, 7, 8])
        for i in range(5):
            tree.insert_entry((s, i))
        (leaf,) = [l for l in tree.leaves() if l.entries]
        assert leaf.layer == 4  # split as deep as possible
        assert len(leaf.entries) == 5  # overflow allowed at max depth

    def test_rejects_wrong_cardinality(self):
        tree = make_tree()
        with pytest.raises(ValueError, match="signature"):
            tree.insert_entry((sig([1, 1, 1, 1], bits=2), 0))

    def test_total_preserved_under_random_load(self):
        rng = np.random.default_rng(0)
        tree = make_tree(threshold=5)
        n = 300
        for i in range(n):
            symbols = rng.integers(0, 16, size=4)
            tree.insert_entry((sig(symbols), i))
        assert tree.root.count == n
        assert sum(len(l.entries) for l in tree.leaves()) == n
        tree.validate()

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=120))
    @settings(max_examples=40)
    def test_every_inserted_entry_findable(self, seeds):
        rng = np.random.default_rng(7)
        tree = make_tree(threshold=3)
        signatures = []
        for i, _ in enumerate(seeds):
            symbols = rng.integers(0, 16, size=4)
            s = sig(symbols)
            signatures.append(s)
            tree.insert_entry((s, i))
        for i, s in enumerate(signatures):
            leaf = tree.descend(s)
            assert leaf.is_leaf
            assert any(entry[1] == i for entry in leaf.entries)
        tree.validate()


class TestStatNodes:
    def test_insert_stat_layers(self):
        tree = make_tree(threshold=100)
        tree.set_root_count(50)
        s2 = sig([3, 7, 11, 15])
        layer1 = s2[:1]  # w=4 -> one char per plane
        tree.insert_stat_node(layer1, 50)
        tree.insert_stat_node(s2[:2], 30)
        assert tree.root.count == 50
        node = tree.descend(s2 + "00")  # descend wants full-length prefix ok
        assert node.layer == 2
        assert node.count == 30
        tree.validate()

    def test_missing_ancestor_created(self):
        tree = make_tree(threshold=100)
        deep = sig([1, 2, 3, 4])[:2]
        tree.insert_stat_node(deep, 10)
        assert tree.height() == 2

    def test_root_layer_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.insert_stat_node("", 1)

    def test_too_deep_rejected(self):
        tree = make_tree(max_bits=2)
        with pytest.raises(ValueError):
            tree.insert_stat_node("abc", 1)


class TestTraversalAndReporting:
    def test_descend_stops_at_missing_child(self):
        tree = make_tree(threshold=100)
        tree.insert_stat_node(sig([1, 2, 3, 4])[:1], 5)
        missing = sig([15, 14, 13, 12])
        node = tree.descend(missing)
        assert node is tree.root or not node.signature  # stays at root

    def test_siblings(self):
        tree = make_tree(threshold=100)
        a = tree.insert_stat_node(sig([0, 0, 0, 0])[:1], 1)
        b = tree.insert_stat_node(sig([15, 15, 15, 15])[:1], 1)
        assert a.siblings() == [b]
        assert b.siblings() == [a]
        assert tree.root.siblings() == []

    def test_depth_histogram_and_height(self):
        tree = make_tree(threshold=1)
        rng = np.random.default_rng(2)
        for i in range(40):
            tree.insert_entry((sig(rng.integers(0, 16, size=4)), i))
        histogram = tree.depth_histogram()
        assert sum(histogram.values()) == len(tree.leaves())
        assert max(histogram) == tree.height()
        assert min(histogram) >= 1

    def test_n_nodes_counts_root(self):
        tree = make_tree()
        assert tree.n_nodes() == 1
        tree.insert_entry((sig([1, 2, 3, 4]), 0))
        assert tree.n_nodes() == 2

    def test_estimated_nbytes_grows_with_entries_flag(self):
        tree = make_tree(threshold=100)
        for i in range(10):
            tree.insert_entry((sig([1, 2, 3, 4]), i))
        bare = tree.estimated_nbytes(include_entries=False)
        full = tree.estimated_nbytes(include_entries=True)
        assert full > bare

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SigTree(word_length=8, max_bits=0, split_threshold=1)
        with pytest.raises(ValueError):
            SigTree(word_length=8, max_bits=4, split_threshold=0)
        with pytest.raises(ValueError):
            SigTree(word_length=5, max_bits=4, split_threshold=1)


class TestFanout:
    def test_fanout_bounded_by_2_pow_w(self):
        """Stress one node with every possible child signature."""
        tree = make_tree(threshold=1, w=4)
        rng = np.random.default_rng(3)
        for i in range(500):
            tree.insert_entry((sig(rng.integers(0, 16, size=4)), i))
        for node in tree.iter_nodes():
            assert len(node.children) <= 16
        tree.validate()


class TestBulkLoad:
    """``bulk_load`` leaves exactly the tree of row-by-row inserts."""

    @staticmethod
    def _block(signatures):
        from repro.core.columnar import ColumnarBlock

        return ColumnarBlock.from_records(
            [(s, rid, None) for rid, s in enumerate(signatures)],
            word_length=4, clustered=False,
        )

    @staticmethod
    def _walk(tree):
        return [
            (node.signature, node.layer, node.count, list(node.entries),
             list(node.children))
            for node in tree.iter_nodes()
        ], tree.version

    def _both(self, signatures, threshold, max_bits):
        block = self._block(signatures)
        inserted = make_tree(threshold=threshold, max_bits=max_bits)
        inserted.attach_block(block)
        for row in range(block.n_rows):
            inserted.insert_entry(row)
        bulk = make_tree(threshold=threshold, max_bits=max_bits)
        bulk.attach_block(block)
        bulk.bulk_load()
        bulk.validate()
        return self._walk(inserted), self._walk(bulk)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_row_by_row_inserts(self, data):
        max_bits = data.draw(st.integers(1, 3))
        threshold = data.draw(st.integers(1, 5))
        top = (1 << max_bits) - 1
        # A few distinct symbol words, drawn from often: rows share long
        # prefixes and whole signatures, so leaves reach the last layer.
        pool = data.draw(st.lists(
            st.lists(st.integers(0, top), min_size=4, max_size=4),
            min_size=1, max_size=4,
        ))
        words = data.draw(st.lists(st.sampled_from(pool), max_size=40))
        signatures = [sig(word, bits=max_bits) for word in words]
        inserted, bulk = self._both(signatures, threshold, max_bits)
        assert bulk == inserted

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_happens_past_the_threshold_only(self, n):
        # Two rows sharing the first plane stay one leaf at threshold 2;
        # a third splits it.
        words = [[0b00, 0b01, 0b10, 0b11], [0b01, 0b00, 0b11, 0b10],
                 [0b00, 0b00, 0b10, 0b10]][:n]
        signatures = [sig(w, bits=2) for w in words]
        inserted, bulk = self._both(signatures, threshold=2, max_bits=2)
        assert bulk == inserted
        (first,) = [node for node in bulk[0] if node[1] == 1]
        assert (first[3] == []) == (n == 3)

    def test_empty_block(self):
        inserted, bulk = self._both([], threshold=2, max_bits=2)
        assert bulk == inserted == ([("", 0, 0, [], [])], 0)

    def test_refuses_a_populated_tree_and_bad_signatures(self):
        tree = make_tree(threshold=2, max_bits=2)
        with pytest.raises(ValueError, match="attached block"):
            tree.bulk_load()
        tree.attach_block(self._block([sig([0, 1, 2, 3], bits=2)]))
        tree.bulk_load()
        with pytest.raises(ValueError, match="empty tree"):
            tree.bulk_load()
        wrong = make_tree(threshold=2, max_bits=3)
        wrong.attach_block(self._block([sig([0, 1, 2, 3], bits=2)]))
        with pytest.raises(ValueError, match="3-bit-cardinality"):
            wrong.bulk_load()
