"""Tests for Tardis-L partitions: exact lookup, target node, pruned scan,
and Bloom integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TardisConfig
from repro.core.local_index import build_local_partition
from repro.core.isaxt import decode_signature, signature_of_series
from repro.tsdb.distance import euclidean, mindist_paa_to_word
from repro.tsdb.paa import paa_transform
from repro.tsdb.series import z_normalize

CFG = TardisConfig(word_length=8, cardinality_bits=4, l_max_size=10, g_max_size=100)
LENGTH = 32


def make_records(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    values = z_normalize(np.cumsum(rng.standard_normal((n, LENGTH)), axis=1))
    return [
        (signature_of_series(values[i], CFG.word_length, CFG.cardinality_bits),
         i, values[i])
        for i in range(n)
    ], values


class TestBuild:
    def test_all_records_in_tree(self):
        records, _ = make_records(80)
        partition = build_local_partition(0, records, CFG)
        assert partition.n_records == 80
        assert len(partition.all_entries()) == 80
        partition.tree.validate()

    def test_unclustered_drops_series(self):
        records, _ = make_records(10)
        partition = build_local_partition(0, records, CFG, clustered=False)
        assert all(entry[2] is None for entry in partition.all_entries())

    def test_empty_partition(self):
        partition = build_local_partition(0, [], CFG)
        assert partition.n_records == 0
        assert partition.all_entries() == []

    def test_index_nbytes_positive(self):
        records, _ = make_records(30)
        partition = build_local_partition(0, records, CFG)
        assert partition.index_nbytes() > 0


class TestTupleWrappers:
    """The tuple entry points are wrappers over the row path: the same
    partition, field for field, from tuples as from rows."""

    @staticmethod
    def state(partition):
        block = partition.block
        return (
            partition.n_records, partition.nbytes, partition.clustered,
            block.record_ids.tolist(), block.signatures.tolist(),
            block.symbols.tolist(),
            None if block.values is None else block.values.tolist(),
            [(node.signature, node.count, list(node.entries))
             for node in partition.tree.iter_nodes()],
            partition.bloom.bits.tobytes(), partition.bloom.n_items,
            sorted(partition.region_prefixes),
        )

    @pytest.mark.parametrize("clustered", [True, False])
    def test_build_local_partition_equals_build_partition(self, clustered):
        from repro.core.builder import convert_batch, convert_records
        from repro.core.columnar import ColumnarBlock
        from repro.core.local_index import build_partition

        _records, values = make_records(120, seed=3)
        records = convert_records(
            [(rid, values[rid]) for rid in range(len(values))], CFG
        )
        signatures, _paa, symbols = convert_batch(values, CFG)
        assert [sig for sig, _rid, _ts in records] == signatures
        source = ColumnarBlock(
            np.arange(len(values), dtype=np.int64), values,
            np.asarray(signatures), symbols.astype(np.uint32),
        )
        rows = np.random.default_rng(1).permutation(len(values))[:90]
        from_rows = build_partition(5, source, rows, CFG, clustered=clustered)
        from_tuples = build_local_partition(
            5, [records[row] for row in rows], CFG, clustered=clustered
        )
        assert self.state(from_rows) == self.state(from_tuples)
        if clustered:  # gathered into a buffer of its own
            assert not np.shares_memory(from_rows.block.values, values)


class TestBloomIntegration:
    def test_every_signature_in_filter(self):
        records, _ = make_records(60)
        partition = build_local_partition(0, records, CFG)
        for sig, _rid, _ts in records:
            assert partition.might_contain(sig)

    def test_no_bloom_mode_empty_filter(self):
        records, _ = make_records(20)
        partition = build_local_partition(0, records, CFG, with_bloom=False)
        assert partition.bloom.n_items == 0


class TestExactLookup:
    def test_finds_stored_series(self):
        records, values = make_records(50)
        partition = build_local_partition(0, records, CFG)
        for i in (0, 17, 49):
            sig = records[i][0]
            assert i in partition.exact_lookup(sig, values[i])

    def test_absent_series_not_found(self):
        records, values = make_records(50)
        partition = build_local_partition(0, records, CFG)
        ghost = z_normalize(values[0] + 0.01)
        sig = signature_of_series(ghost, CFG.word_length, CFG.cardinality_bits)
        assert partition.exact_lookup(sig, ghost) == []

    def test_duplicate_series_all_returned(self):
        records, values = make_records(5)
        dup = (records[0][0], 99, values[0])
        partition = build_local_partition(0, records + [dup], CFG)
        found = partition.exact_lookup(records[0][0], values[0])
        assert set(found) == {0, 99}

    def test_unclustered_raises(self):
        records, values = make_records(5)
        partition = build_local_partition(0, records, CFG, clustered=False)
        with pytest.raises(RuntimeError, match="clustered"):
            partition.exact_lookup(records[0][0], values[0])


class TestTargetNode:
    def test_lowest_node_with_k_entries(self):
        records, values = make_records(200, seed=3)
        partition = build_local_partition(0, records, CFG)
        sig = records[0][0]
        for k in (1, 5, 20, 100):
            node = partition.target_node(sig, k)
            assert node.count >= k or node is partition.tree.root
            # Minimality: the on-path child covering sig holds < k.
            child_key = partition.tree._prefix(sig, node.layer + 1)
            child = node.children.get(child_key)
            if child is not None:
                assert child.count < k

    def test_k_larger_than_partition_returns_root(self):
        records, _ = make_records(10)
        partition = build_local_partition(0, records, CFG)
        node = partition.target_node(records[0][0], 500)
        assert node is partition.tree.root

    def test_invalid_k(self):
        records, _ = make_records(5)
        partition = build_local_partition(0, records, CFG)
        with pytest.raises(ValueError):
            partition.target_node(records[0][0], 0)

    def test_entries_under_counts(self):
        records, _ = make_records(100, seed=5)
        partition = build_local_partition(0, records, CFG)
        node = partition.target_node(records[0][0], 30)
        entries = partition.entries_under(node)
        assert len(entries) == node.count >= 30


class TestPrunedEntries:
    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_never_prunes_within_threshold(self, seed):
        """Safety of MINDIST pruning: every entry whose true distance is
        at most the threshold must survive."""
        records, values = make_records(120, seed=7)
        partition = build_local_partition(0, records, CFG)
        rng = np.random.default_rng(seed)
        query = z_normalize(np.cumsum(rng.standard_normal(LENGTH)))
        paa = paa_transform(query, CFG.word_length)
        threshold = 4.0
        rows = partition.pruned_entries(paa, threshold, LENGTH)
        survivors = set(partition.block.record_ids[rows].tolist())
        for i in range(120):
            if euclidean(query, values[i]) <= threshold:
                assert i in survivors

    def test_infinite_threshold_returns_everything(self):
        records, _ = make_records(60)
        partition = build_local_partition(0, records, CFG)
        paa = np.zeros(CFG.word_length)
        got = partition.pruned_entries(paa, np.inf, LENGTH)
        assert len(got) == 60

    def test_skip_excludes_subtree(self):
        records, _ = make_records(60)
        partition = build_local_partition(0, records, CFG)
        sig = records[0][0]
        target = partition.target_node(sig, 5)
        paa = np.zeros(CFG.word_length)
        without = partition.pruned_entries(paa, np.inf, LENGTH, skip=target)
        assert len(without) == 60 - target.count

    def test_zero_threshold_keeps_own_region(self):
        records, values = make_records(40)
        partition = build_local_partition(0, records, CFG)
        paa = paa_transform(values[0], CFG.word_length)
        rows = partition.pruned_entries(paa, 0.0, LENGTH)
        survivors = set(partition.block.record_ids[rows].tolist())
        assert 0 in survivors  # own region has MINDIST 0


class TestNodeMindist:
    def test_root_is_zero(self):
        records, _ = make_records(10)
        partition = build_local_partition(0, records, CFG)
        paa = np.full(CFG.word_length, 3.0)
        root = partition.tree.root
        assert mindist_paa_to_word(
            paa, *decode_signature(root.signature, CFG.word_length), LENGTH
        ) == 0.0

    def test_own_leaf_is_zero(self):
        records, values = make_records(30)
        partition = build_local_partition(0, records, CFG)
        paa = paa_transform(values[4], CFG.word_length)
        leaf = partition.tree.descend(records[4][0])
        assert mindist_paa_to_word(
            paa, *decode_signature(leaf.signature, CFG.word_length), LENGTH
        ) == 0.0
