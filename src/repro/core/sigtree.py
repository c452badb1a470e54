"""sigTree: the K-ary index tree over iSAX-T signatures (paper §III-B).

A sigTree node at layer ``i`` covers all series whose iSAX-T signature,
reduced to ``i``-bit cardinality, equals the node's signature.  Children
extend the parent by one bit plane (``w/4`` hex characters), giving a
fan-out of up to ``2^w`` — the compactness that replaces the binary iBT's
deep paths.

The same structure backs both TARDIS indices:

* **Tardis-G** populates it from sampled node *statistics*
  (:meth:`SigTree.insert_stat_node`) and stores partition ids at leaves.
* **Tardis-L** populates it with actual data *entries*
  (:meth:`SigTree.insert_entry`), splitting leaves that exceed the
  ``split_threshold`` by one bit plane; a whole block is indexed at once
  by :meth:`SigTree.bulk_load`, which leaves the same tree.

Nodes are doubly linked (parent and children) so query processing can reach
sibling nodes/partitions through the parent, as the paper requires for the
Multi-Partitions Access strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .isaxt import chars_per_plane, signature_bits

__all__ = ["SigTreeNode", "SigTree"]

#: Size model (Fig. 13) reflects the *serialized* index: per node a count
#: (4 B), a layer byte and a child-count entry — in-memory pointers and
#: dict overhead are not persisted, children are implicit in traversal
#: order.  Partition ids serialize as 4-byte ints.
_NODE_OVERHEAD_BYTES = 8
_POINTER_BYTES = 4


@dataclass
class SigTreeNode:
    """One sigTree node; the root has the empty signature at layer 0."""

    signature: str
    layer: int
    parent: "SigTreeNode | None" = None
    children: dict[str, "SigTreeNode"] = field(default_factory=dict)
    count: int = 0
    #: Data entries (leaf nodes of Tardis-L).  With a columnar block
    #: attached to the tree these are *row indices* into the block;
    #: legacy trees hold tuples whose first element is the
    #: full-cardinality iSAX-T signature.
    entries: list = field(default_factory=list)
    #: Partition id of a Tardis-G leaf (None until assignment).
    partition_id: int | None = None
    #: Union of descendant partition ids ("id list" synchronized upward).
    partition_ids: set[int] = field(default_factory=set)
    #: Lazily cached ``(tree_version, row_array, n_subtree_nodes)`` of the
    #: entries under this node — entries *do* change, so the cache is
    #: keyed on :attr:`SigTree.version` and goes stale with the tree.
    subtree_rows: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def siblings(self) -> list["SigTreeNode"]:
        """All same-layer nodes under this node's parent, excluding self."""
        if self.parent is None:
            return []
        return [c for c in self.parent.children.values() if c is not self]

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"SigTreeNode({self.signature!r}, layer={self.layer}, {kind}, count={self.count})"


class SigTree:
    """K-ary tree over iSAX-T signatures with split-on-overflow leaves."""

    def __init__(
        self,
        word_length: int,
        max_bits: int,
        split_threshold: int,
    ):
        """
        Parameters
        ----------
        word_length:
            Number of SAX segments ``w`` (multiple of 4).
        max_bits:
            Initial cardinality bits ``b``; the deepest possible layer.
        split_threshold:
            Leaf capacity before promotion to an internal node
            (G-MaxSize / L-MaxSize in the paper).
        """
        if max_bits <= 0:
            raise ValueError("max_bits must be positive")
        if split_threshold <= 0:
            raise ValueError("split_threshold must be positive")
        self.word_length = word_length
        self.per_plane = chars_per_plane(word_length)
        self.max_bits = max_bits
        self.split_threshold = split_threshold
        self.root = SigTreeNode(signature="", layer=0)
        #: Columnar block backing this tree's entries (Tardis-L only).
        #: When set, leaf entries are row indices into the block.
        self.block = None
        #: Bumped *after* every entry mutation is complete (and, in
        #: Tardis-G, after every statistics insert and partition
        #: (re)assignment); the per-node subtree caches, the node table
        #: and Tardis-G's routing table carry the version read before
        #: they were built and ignore stale snapshots.
        self.version = 0
        #: Lazily built flat view of the whole tree for the pruned scan
        #: (see :mod:`repro.core.local_index`), keyed on :attr:`version`.
        self.node_table = None

    # -- shared helpers --------------------------------------------------------

    def attach_block(self, block) -> None:
        """Back this tree's entries with a :class:`ColumnarBlock`.

        From this point on, :meth:`insert_entry` accepts row indices and
        resolves their signatures through the block.
        """
        self.block = block

    def entry_signature(self, entry) -> str:
        """Full-cardinality signature of a leaf entry (row index or tuple)."""
        if self.block is not None and not isinstance(entry, tuple):
            return self.block.signature_at(int(entry))
        return entry[0]

    def _prefix(self, signature: str, layer: int) -> str:
        """The ``layer``-bit-cardinality prefix of a full signature."""
        return signature[: layer * self.per_plane]

    def _check_full_signature(self, signature: str) -> None:
        if signature_bits(signature, self.word_length) != self.max_bits:
            raise ValueError(
                f"expected a {self.max_bits}-bit-cardinality signature, got "
                f"{signature!r}"
            )

    def descend(self, signature: str) -> SigTreeNode:
        """Walk from the root toward ``signature``; return the deepest node.

        The returned node is the leaf whose region contains the signature,
        or the deepest internal node on the path when no matching child
        exists (possible in Tardis-G for signatures unseen during
        sampling).
        """
        node = self.root
        while not node.is_leaf:
            child_key = self._prefix(signature, node.layer + 1)
            child = node.children.get(child_key)
            if child is None:
                return node
            node = child
        return node

    # -- Tardis-L style construction (data entries) ------------------------------

    def insert_entry(self, entry) -> SigTreeNode:
        """Insert a data entry (a block row index, or a legacy tuple).

        Traverses to the covering leaf, appends, and splits the leaf by one
        bit plane whenever it exceeds ``split_threshold`` and can still be
        refined (layer < ``max_bits``).  Every node on the path increments
        its count.
        """
        signature = self.entry_signature(entry)
        self._check_full_signature(signature)
        node = self.root
        node.count += 1
        # The root holds no entries (paper §III-B): it always routes to a
        # first-layer child, created on demand.
        first_key = self._prefix(signature, 1)
        first = node.children.get(first_key)
        if first is None:
            first = SigTreeNode(signature=first_key, layer=1, parent=node)
            node.children[first_key] = first
        node = first
        node.count += 1
        while not node.is_leaf:
            child_key = self._prefix(signature, node.layer + 1)
            child = node.children.get(child_key)
            if child is None:
                child = SigTreeNode(
                    signature=child_key, layer=node.layer + 1, parent=node
                )
                node.children[child_key] = child
            node = child
            node.count += 1
        node.entries.append(entry)
        leaf = node
        while (
            leaf.is_leaf
            and len(leaf.entries) > self.split_threshold
            and leaf.layer < self.max_bits
        ):
            leaf = self._split_leaf(leaf, signature)
        # Only now: a reader that filled a version-keyed cache while the
        # entry was half in must not have filed it under the new version.
        self.version += 1
        return leaf

    def _split_leaf(self, leaf: SigTreeNode, followed: str) -> SigTreeNode:
        """Promote an overflowing leaf and redistribute its entries.

        Returns the child that now covers ``followed`` so cascading splits
        (all entries sharing the next bit plane) can continue downward.
        """
        next_layer = leaf.layer + 1
        for entry in leaf.entries:
            child_key = self._prefix(self.entry_signature(entry), next_layer)
            child = leaf.children.get(child_key)
            if child is None:
                child = SigTreeNode(
                    signature=child_key, layer=next_layer, parent=leaf
                )
                leaf.children[child_key] = child
            child.entries.append(entry)
            child.count += 1
        leaf.entries = []
        return leaf.children[self._prefix(followed, next_layer)]

    def bulk_load(self) -> None:
        """Index rows ``0..n-1`` of the attached block into this empty tree.

        The whole-array body of ``n`` :meth:`insert_entry` calls, leaving
        the same tree.  A leaf splits the moment it holds
        ``split_threshold + 1`` entries and counts never fall while a tree
        is built, so a node ends up split iff its final count exceeds the
        threshold and ``layer < max_bits``.  Each node's rows are grouped
        by their next-plane prefix; children are created in the rows'
        first-occurrence order and a leaf keeps its rows in row order.
        Signatures are validated by length, all at once; the version
        advances by ``n``.
        """
        if self.block is None:
            raise ValueError("bulk_load needs an attached block")
        if self.root.count or self.root.children:
            raise ValueError("bulk_load builds an empty tree only")
        signatures = self.block.signatures
        full = self.max_bits * self.per_plane
        if set(map(len, signatures.tolist())) - {full}:
            self._check_full_signature(
                next(s for s in signatures.tolist() if len(s) != full)
            )
        n = len(signatures)
        self.root.count = n
        # The root holds no entries (paper §III-B): it always splits.
        stack = [(self.root, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            layer = node.layer + 1
            keys = signatures[rows].astype(f"U{layer * self.per_plane}")
            prefixes, first, group = np.unique(
                keys, return_index=True, return_inverse=True
            )
            ends = np.cumsum(np.bincount(group, minlength=len(prefixes)))
            sizes = np.diff(ends, prepend=0)
            grouped = rows[np.argsort(group, kind="stable")]
            inner = (sizes > self.split_threshold) & (layer < self.max_bits)
            # Only leaves' rows become Python ints: ints made for an inner
            # child's rows would be dropped when it splits, leaving holes
            # in the heap the loaded index lives on.
            leaf_rows = grouped[np.repeat(~inner, sizes)].tolist()
            leaf_ends = np.cumsum(np.where(inner, 0, sizes))
            # Children in first-occurrence order, walked as Python
            # values: a numpy scalar per child costs more than the node.
            order = np.argsort(first)
            for key, end, size, leaf_end, split in zip(
                prefixes[order].tolist(), ends[order].tolist(),
                sizes[order].tolist(), leaf_ends[order].tolist(),
                inner[order].tolist(),
            ):
                child = SigTreeNode(
                    signature=key, layer=layer, parent=node, count=size,
                    entries=[] if split else leaf_rows[leaf_end - size:leaf_end],
                )
                node.children[key] = child
                if split:
                    stack.append((child, grouped[end - size:end]))
        self.version += n

    # -- Tardis-G style construction (node statistics) ----------------------------

    def insert_stat_node(self, signature: str, frequency: int) -> SigTreeNode:
        """Insert a node known only by its signature and series count.

        Used during skeleton building: statistics arrive layer by layer in
        ascending order, so every ancestor already exists (the root always
        does).  Missing intermediate ancestors are created with zero count
        and corrected when their own statistics arrive.
        """
        layer = signature_bits(signature, self.word_length)
        if layer == 0:
            raise ValueError("cannot insert a stat node at the root layer")
        if layer > self.max_bits:
            raise ValueError(f"layer {layer} exceeds max_bits {self.max_bits}")
        node = self.root
        for depth in range(1, layer + 1):
            child_key = self._prefix(signature, depth)
            child = node.children.get(child_key)
            if child is None:
                child = SigTreeNode(
                    signature=child_key, layer=depth, parent=node
                )
                node.children[child_key] = child
            node = child
        node.count = frequency
        self.version += 1
        return node

    def set_root_count(self, total: int) -> None:
        """Record the dataset-wide series count at the root."""
        self.root.count = total

    # -- traversal / reporting -----------------------------------------------------

    def iter_nodes(self) -> Iterator[SigTreeNode]:
        """Depth-first iteration over all nodes, root included."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def leaves(self) -> list[SigTreeNode]:
        return [node for node in self.iter_nodes() if node.is_leaf]

    def internal_nodes(self) -> list[SigTreeNode]:
        return [
            node for node in self.iter_nodes() if not node.is_leaf
        ]

    def n_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def height(self) -> int:
        """Deepest leaf layer."""
        return max((leaf.layer for leaf in self.leaves()), default=0)

    def depth_histogram(self) -> dict[int, int]:
        """Leaf layer → number of leaves (structure-compactness metric)."""
        histogram: dict[int, int] = {}
        for leaf in self.leaves():
            histogram[leaf.layer] = histogram.get(leaf.layer, 0) + 1
        return dict(sorted(histogram.items()))

    def estimated_nbytes(self, include_entries: bool = False) -> int:
        """Modelled serialized size (Fig. 13); entries excluded by default."""
        total = 0
        for node in self.iter_nodes():
            total += _NODE_OVERHEAD_BYTES
            total += len(node.signature)
            total += _POINTER_BYTES * len(node.children)
            total += _POINTER_BYTES * len(node.partition_ids)
            if include_entries:
                for entry in node.entries:
                    total += len(self.entry_signature(entry)) + _POINTER_BYTES
        return total

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breach.

        Used by tests and available to callers as a cheap self-check:
        child signatures extend parents by exactly one bit plane, fan-out
        never exceeds ``2^w``, internal nodes hold no entries, and counts
        are consistent where fully populated.
        """
        for node in self.iter_nodes():
            assert len(node.children) <= (1 << self.word_length), "fan-out breach"
            for key, child in node.children.items():
                assert child.parent is node, "broken parent link"
                assert key == child.signature, "child key mismatch"
                assert child.layer == node.layer + 1, "layer mismatch"
                assert child.signature.startswith(node.signature), "prefix breach"
                assert (
                    len(child.signature) == len(node.signature) + self.per_plane
                ), "signature growth must be one bit plane"
            if not node.is_leaf:
                assert not node.entries, "internal node holding entries"
