"""Tardis-G routing: ``route_many`` ≡ ``route`` ≡ the first-mismatch rule.

The reference below is the rule written out node by node: at every
internal node take the child whose signature first differs from the
query's prefix furthest right, the smallest signature on a tie.  An
exact child differs nowhere, so it always wins; below a fallback every
child of the chosen node differs at the same position, so the smallest
signature wins at every deeper layer.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TardisConfig, build_tardis_index
from repro.core.builder import convert_batch
from repro.core.global_index import TardisGlobalIndex, collect_layer_statistics
from repro.core.isaxt import batch_signatures
from repro.core.partitioning import assign_partitions
from repro.core.sigtree import SigTreeNode
from repro.tsdb import random_walk


def reference_route(index: TardisGlobalIndex, signature: str) -> int:
    node = index.tree.root
    while not node.is_leaf:
        target = signature[: (node.layer + 1) * index.tree.per_plane]

        def mismatch(child) -> int:
            for i, (a, b) in enumerate(zip(child.signature, target)):
                if a != b:
                    return i
            return len(target)

        node = min(
            node.children.values(),
            key=lambda child: (-mismatch(child), child.signature),
        )
    return node.partition_id


@st.composite
def trees_and_queries(draw):
    word_length = draw(st.sampled_from([4, 8]))
    bits = draw(st.integers(2, 4))
    config = TardisConfig(
        word_length=word_length, cardinality_bits=bits,
        g_max_size=draw(st.integers(2, 12)),
    )
    top = 1 << bits
    words = st.lists(
        st.integers(0, top - 1), min_size=word_length, max_size=word_length
    )
    sampled = draw(st.lists(words, min_size=1, max_size=40))
    counts = {}
    for signature in batch_signatures(np.array(sampled), bits):
        counts[signature] = counts.get(signature, 0) + draw(st.integers(1, 9))
    index = TardisGlobalIndex(config)
    stats = collect_layer_statistics(counts, config)
    for layer in sorted(stats.layers):
        for signature, count in stats.nodes_in_layer(layer).items():
            index.tree.insert_stat_node(signature, count)
    # Graft children under some leaves the way a rebalance refines one:
    # one plane deeper, keyed by a routed record's own prefix, which need
    # not extend the leaf's signature.
    digits = "0123456789abcdef"
    per_plane = word_length // 4
    for leaf in index.tree.leaves():
        if leaf.layer == 0 or leaf.layer >= bits or not draw(st.booleans()):
            continue
        for _ in range(draw(st.integers(1, 3))):
            head = leaf.signature if draw(st.booleans()) else draw(
                st.text(digits, min_size=len(leaf.signature),
                        max_size=len(leaf.signature))
            )
            key = head + draw(
                st.text(digits, min_size=per_plane, max_size=per_plane)
            )
            if key not in leaf.children:
                leaf.children[key] = SigTreeNode(
                    signature=key, layer=leaf.layer + 1, parent=leaf,
                    count=1,
                )
    index.n_partitions = assign_partitions(index.tree, config.g_max_size)
    # Unseen words, the sampled ones, and every node's signature padded
    # with random digits: a fallback below each depth of the tree.
    queries = batch_signatures(
        np.array(draw(st.lists(words, min_size=1, max_size=30))), bits
    )
    queries += list(counts)
    width = bits * word_length // 4
    for node in index.tree.iter_nodes():
        pad = draw(st.text("0123456789abcdef", min_size=width,
                           max_size=width))
        queries.append((node.signature + pad)[:width])
    return index, queries


class TestRouteManyEqualsRoute:
    @given(trees_and_queries())
    @settings(max_examples=150, deadline=None)
    def test_random_trees(self, case):
        index, queries = case
        many = index.route_many(queries).tolist()
        one = [index.route(q) for q in queries]
        expected = [reference_route(index, q) for q in queries]
        assert many == one == expected

    def test_every_ingested_and_random_row_of_a_build(self, rw_small,
                                                      tardis_small):
        gi = tardis_small.global_index
        config = tardis_small.config
        rows = np.vstack([
            rw_small.values,
            random_walk(2000, length=rw_small.length, seed=9)
            .z_normalized().values,
        ])
        signatures, _paa, _symbols = convert_batch(rows, config)
        many = gi.route_many(signatures).tolist()
        assert many == [gi.route(s) for s in signatures]
        assert many == [reference_route(gi, s) for s in signatures]

    def test_after_a_rebalance(self):
        config = TardisConfig(g_max_size=60, l_max_size=12, seed=13)
        index = build_tardis_index(
            random_walk(360, length=48, seed=31).z_normalized(), config
        )
        index.ingest(random_walk(300, length=48, seed=32).z_normalized().values)
        before = index.global_index.tree.version
        report = index.rebalance(overflow_factor=1.2)
        assert report.partitions_split
        gi = index.global_index
        assert gi.tree.version > before
        rows = random_walk(3000, length=48, seed=5).z_normalized().values
        signatures, _paa, _symbols = convert_batch(rows, config)
        many = gi.route_many(signatures).tolist()
        assert many == [gi.route(s) for s in signatures]
        assert many == [reference_route(gi, s) for s in signatures]
        index.validate()

    def test_a_fallback_can_rejoin_an_exact_path(self):
        # Root children "0" and "8"; under "0" a child "c3" that does not
        # extend it, itself split one plane deeper.  A "c3…" query falls
        # back to "0" at the root, finds "c3" exactly, then descends
        # exactly again.
        config = TardisConfig(word_length=4, cardinality_bits=3,
                              g_max_size=5)
        index = TardisGlobalIndex(config)
        nodes = {"": index.tree.root}
        for signature, parent in (
            ("0", ""), ("8", ""), ("01", "0"), ("c3", "0"),
            ("c31", "c3"), ("c35", "c3"),
        ):
            node = SigTreeNode(
                signature=signature, layer=nodes[parent].layer + 1,
                parent=nodes[parent], count=1,
            )
            nodes[parent].children[signature] = nodes[signature] = node
        index.n_partitions = assign_partitions(index.tree, 1)
        queries = ["c35", "c31", "c3f", "c70", "011", "fff", "800", "c00"]
        many = index.route_many(queries).tolist()
        assert many == [index.route(q) for q in queries]
        assert many == [reference_route(index, q) for q in queries]
        leaf = {node.signature: node.partition_id
                for node in index.tree.leaves()}
        assert index.route("c35") == leaf["c35"]
        assert index.route("c3f") == leaf["c31"]  # smallest on a tie

    def test_planes_wider_than_64_bits(self):
        # w = 68: a plane is 17 hex digits, past a 64-bit code.
        config = TardisConfig(word_length=68, cardinality_bits=3,
                              g_max_size=4)
        rng = np.random.default_rng(3)
        sampled = rng.integers(0, 8, size=(60, 68))
        sampled[:30] %= 4  # one first plane for 30 words: a deeper layer
        counts = {s: 2 for s in batch_signatures(sampled, 3)}
        index = TardisGlobalIndex.from_statistics(
            collect_layer_statistics(counts, config), config
        )
        assert index.tree.height() > 1
        queries = list(counts) + batch_signatures(
            rng.integers(0, 8, size=(200, 68)), 3
        )
        queries[-100:] = [q[:17] + queries[i][17:]
                          for i, q in enumerate(queries[-100:])]
        many = index.route_many(queries).tolist()
        assert many == [index.route(q) for q in queries]
        assert many == [reference_route(index, q) for q in queries]

    def test_empty_batch_and_bad_length(self, tardis_small):
        gi = tardis_small.global_index
        assert gi.route_many([]).size == 0
        assert gi.routing_leaves([]) == []
        good = next(iter(tardis_small.partitions.values())).all_entries()[0][0]
        with pytest.raises(ValueError, match="-character signatures"):
            gi.route_many([good, good + "0"])
        with pytest.raises(ValueError, match="-character signatures"):
            gi.route_many([good[:-1]])

    def test_unassigned_leaf_raises(self):
        config = TardisConfig(word_length=4, cardinality_bits=2, g_max_size=5)
        index = TardisGlobalIndex(config)
        index.tree.insert_stat_node("0", 3)
        with pytest.raises(RuntimeError, match="no partition assignment"):
            index.route("00")
        with pytest.raises(RuntimeError, match="no partition assignment"):
            index.route_many(["00"])


class TestRouteMemoryIsFlat:
    def test_distinct_signatures_leave_nothing_behind(self, tardis_small):
        gi = tardis_small.global_index
        config = tardis_small.config
        rng = np.random.default_rng(17)
        symbols = rng.integers(
            0, 1 << config.cardinality_bits,
            size=(100_000, config.word_length), dtype=np.uint32,
        )
        signatures = batch_signatures(symbols, config.cardinality_bits)
        assert len(set(signatures)) > 90_000
        gi.route(signatures[0])  # the table is built once, here
        gc.collect()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            for signature in signatures:
                gi.route(signature)
            for start in range(0, len(signatures), 10_000):
                gi.route_many(signatures[start:start + 10_000])
            gc.collect()
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024
