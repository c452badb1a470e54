"""Tardis-G: the centralized global index (paper §IV-B, Fig. 7).

Tardis-G is a lightweight sigTree living on the master.  It is built from
*sampled signature statistics*, not from the raw data:

1. **Data preprocessing** — block-level sample; each sampled series becomes
   ``(isaxt(b), 1)``, aggregated to ``(isaxt(b), freq)`` pairs.
2. **Node statistics** — layer by layer (``i = 1, 2, ...``): reduce the
   ``b``-bit pairs to their ``i``-bit prefixes; nodes whose (scaled)
   frequency fits G-MaxSize are finalized as leaves and their series are
   filtered out; oversized nodes continue to layer ``i + 1``.
3. **Skeleton building** — insert all per-layer node statistics into a
   sigTree on the master via tree insertion.
4. **Partition assignment** — FFD-pack sibling leaves into partitions
   (:mod:`repro.core.partitioning`).

The distributed choreography (which stages run where, what gets charged to
the ledger) lives in :mod:`repro.core.builder`; this module holds the
master-side logic so it can be unit-tested standalone.
"""

from __future__ import annotations

from bisect import bisect_left
from os.path import commonprefix
from dataclasses import dataclass, field

import numpy as np

from .config import TardisConfig
from .isaxt import chars_per_plane, signature_bits
from .partitioning import assign_partitions
from .sigtree import SigTree, SigTreeNode

__all__ = ["LayerStatistics", "collect_layer_statistics", "TardisGlobalIndex"]


@dataclass
class LayerStatistics:
    """Per-layer node statistics produced by the collection phase.

    ``layers[i]`` maps a layer-``i`` signature to its (scaled, estimated)
    series count; it contains every node that *exists* at layer ``i`` —
    both the ones finalized as leaves there and the oversized ones that
    continue downward.
    """

    layers: dict[int, dict[str, int]] = field(default_factory=dict)
    total: int = 0

    def nodes_in_layer(self, layer: int) -> dict[str, int]:
        return self.layers.get(layer, {})

    @property
    def deepest_layer(self) -> int:
        return max(self.layers, default=0)


def collect_layer_statistics(
    signature_frequencies: dict[str, int],
    config: TardisConfig,
    scale: float = 1.0,
) -> LayerStatistics:
    """Run the paper's layer-by-layer Map/Reduce/Judge loop.

    Parameters
    ----------
    signature_frequencies:
        Aggregated ``isaxt(b) -> freq`` pairs from the (sampled) data.
    config:
        Supplies ``g_max_size``, ``word_length`` and ``cardinality_bits``.
    scale:
        Inverse sampling fraction.  Sampled frequencies are multiplied by
        this factor before the G-MaxSize comparison so split decisions and
        later packing reflect estimated *full-dataset* counts.
    """
    if scale < 1.0:
        raise ValueError("scale must be >= 1 (inverse sampling fraction)")
    stats = LayerStatistics()
    survivors = {
        sig: freq for sig, freq in signature_frequencies.items()
    }
    for sig in survivors:
        bits = signature_bits(sig, config.word_length)
        if bits != config.cardinality_bits:
            raise ValueError(
                f"signature {sig!r} is not at the initial cardinality "
                f"({config.cardinality_bits} bits)"
            )
    stats.total = round(sum(survivors.values()) * scale)
    for layer in range(1, config.cardinality_bits + 1):
        if not survivors:
            break
        # Map + Reduce: aggregate surviving b-bit signatures to layer
        # prefixes (Eq. 2's dropRight; every signature was checked above).
        layer_counts: dict[str, int] = {}
        prefix_members: dict[str, list[str]] = {}
        chars = layer * chars_per_plane(config.word_length)
        for sig, freq in survivors.items():
            prefix = sig[:chars]
            layer_counts[prefix] = layer_counts.get(prefix, 0) + freq
            prefix_members.setdefault(prefix, []).append(sig)
        estimated = {
            prefix: max(1, round(freq * scale))
            for prefix, freq in layer_counts.items()
        }
        stats.layers[layer] = estimated
        # Judge: stop when every node fits; otherwise drop finalized leaves
        # and push only the oversized nodes' members to the next layer.
        if layer == config.cardinality_bits:
            break
        oversized = {
            prefix
            for prefix, est in estimated.items()
            if est > config.g_max_size
        }
        if not oversized:
            break
        survivors = {
            sig: survivors[sig]
            for prefix in oversized
            for sig in prefix_members[prefix]
        }
    return stats


class _RouteTable:
    """One Tardis-G flattened for routing.

    Nodes in breadth-first order, the root at position 0.  Per node: its
    layer, its partition id (``None`` off the leaves), its children's
    signatures sorted, and signature -> child position.  Immutable;
    tagged with the tree version read before it was built.
    """

    __slots__ = (
        "version", "per_plane", "nodes", "layer", "pid",
        "child_signatures", "children_of",
    )

    def __init__(self, tree: SigTree):
        self.version = tree.version
        self.per_plane = tree.per_plane
        nodes = [tree.root]
        self.child_signatures: list[list[str]] = []
        self.children_of: list[dict[str, int]] = []
        for node in nodes:  # grows while it is walked: breadth-first
            children = sorted(
                node.children.values(), key=lambda child: child.signature
            )
            keys = [child.signature for child in children]
            self.child_signatures.append(keys)
            self.children_of.append(
                dict(zip(keys, range(len(nodes), len(nodes) + len(keys))))
            )
            nodes.extend(children)
        self.nodes = nodes
        self.layer = [node.layer for node in nodes]
        self.pid = [node.partition_id for node in nodes]

    def descend(self, signature: str) -> int:
        """Leaf position of one full-cardinality signature.

        At every internal node take the child whose signature first
        differs from the signature's prefix furthest right, the smallest
        signature on a tie.  An exact child is a dict hit.  Otherwise:
        among sorted signatures the longest common prefix with the target
        is found beside the target's insertion point, and the children
        sharing that prefix are a run whose first member is the smallest,
        so a fallback is two bisections.
        """
        at = 0
        while self.child_signatures[at]:
            target = signature[: (self.layer[at] + 1) * self.per_plane]
            child = self.children_of[at].get(target)
            if child is None:
                keys = self.child_signatures[at]
                i = bisect_left(keys, target)
                agree = max(
                    len(commonprefix((keys[j], target)))
                    for j in (i - 1, i) if 0 <= j < len(keys)
                )
                child = self.children_of[at][
                    keys[bisect_left(keys, target[:agree])]
                ]
            at = child
        return at


class TardisGlobalIndex:
    """The master-resident global index: sigTree + partition map."""

    def __init__(self, config: TardisConfig):
        self.config = config
        self.tree = SigTree(
            word_length=config.word_length,
            max_bits=config.cardinality_bits,
            split_threshold=config.g_max_size,
        )
        self.n_partitions = 0
        #: The routing table, rebuilt when the tree's version moves on
        #: (statistics inserted, partitions assigned or rebalanced).
        self._routes: _RouteTable | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_statistics(
        cls, stats: LayerStatistics, config: TardisConfig
    ) -> "TardisGlobalIndex":
        """Skeleton building + partition assignment on the master."""
        index = cls(config)
        index.tree.set_root_count(stats.total)
        for layer in sorted(stats.layers):
            for signature, frequency in stats.nodes_in_layer(layer).items():
                index.tree.insert_stat_node(signature, frequency)
        index.n_partitions = assign_partitions(
            index.tree, config.partition_capacity
        )
        return index

    # -- routing -----------------------------------------------------------------

    def locate(self, full_signature: str) -> SigTreeNode:
        """Deepest node covering a full-cardinality signature."""
        return self.tree.descend(full_signature)

    def _table(self) -> _RouteTable:
        table = self._routes
        if table is None or table.version != self.tree.version:
            table = self._routes = _RouteTable(self.tree)
        return table

    def route(self, full_signature: str) -> int:
        """Partition id for one signature (the query path's router).

        Signatures unseen during sampling can reach an internal node with
        no matching child; they are routed into the nearest child's
        subtree — the child whose signature first differs from the
        signature's prefix furthest right, the smallest signature on a
        tie.  Nearest in iSAX-T space approximates nearest in value space
        because the leading bit planes are the most significant bits of
        every segment.  Below such a fallback every child differs at the
        same position, so the smallest signature wins at every deeper
        layer.
        """
        table = self._table()
        return self._partition_of(table, table.descend(full_signature))

    def route_many(self, signatures) -> np.ndarray:
        """Partition id of every full-cardinality signature of a batch —
        :meth:`route` under one table lookup and one length check (the
        construction shuffle's partitioner; a write batch's router)."""
        table = self._checked_table(signatures)
        return np.array(
            [self._partition_of(table, table.descend(s)) for s in signatures],
            dtype=np.int64,
        )

    def routing_leaves(self, signatures) -> list[SigTreeNode]:
        """The Tardis-G leaf :meth:`route_many` lands each signature on."""
        table = self._checked_table(signatures)
        return [table.nodes[table.descend(s)] for s in signatures]

    def _checked_table(self, signatures) -> _RouteTable:
        full = self.config.cardinality_bits * chars_per_plane(
            self.config.word_length
        )
        if set(map(len, signatures)) - {full}:
            bad = next(s for s in signatures if len(s) != full)
            raise ValueError(
                f"expected {full}-character signatures, got {bad!r}"
            )
        return self._table()

    @staticmethod
    def _partition_of(table: _RouteTable, at: int) -> int:
        pid = table.pid[at]
        if pid is None:
            raise RuntimeError(
                f"leaf {table.nodes[at].signature!r} has no partition "
                f"assignment"
            )
        return pid

    def sibling_partition_ids(self, full_signature: str) -> list[int]:
        """Partition id list of the routed node's parent (Alg. 1, line 4).

        This is the candidate pool for Multi-Partitions Access: all
        partitions under the parent of the node the query routes to.
        """
        node = self.locate(full_signature)
        parent = node.parent or node
        return sorted(parent.partition_ids)

    # -- reporting ---------------------------------------------------------------

    def estimated_nbytes(self) -> int:
        """Modelled index size — the whole sigTree (Fig. 13a)."""
        return self.tree.estimated_nbytes(include_entries=False)

    def partition_sizes(self) -> dict[int, int]:
        """Estimated series count per partition (from leaf statistics)."""
        sizes: dict[int, int] = {}
        for leaf in self.tree.leaves():
            pid = leaf.partition_id
            if pid is None:
                continue
            sizes[pid] = sizes.get(pid, 0) + leaf.count
        return sizes
