"""Leaf-partition packing via First-Fit-Decreasing (paper Def. 5, §IV-B).

Tardis-G groups *sibling* leaf nodes into as few partitions as possible so
that (1) every record in a partition is similar at the parent-node level and
(2) partitions approach the block capacity, which distributed engines
prefer.  Bin packing is NP-hard; the paper adopts FFD — ``O(n log n)`` with
a 3/2 worst-case performance ratio — and so do we.

After packing, partition ids are synchronized up the ancestor chain
("id list") so sibling-partition retrieval during Multi-Partitions Access is
a parent-node lookup.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .sigtree import SigTree, SigTreeNode

__all__ = ["first_fit_decreasing", "assign_partitions"]


def first_fit_decreasing(
    items: Sequence[tuple[Hashable, int]], capacity: int
) -> list[list[Hashable]]:
    """Pack ``(key, size)`` items into bins of ``capacity`` by FFD.

    Items are sorted by size descending, then each goes into the first bin
    with room.  An item larger than ``capacity`` (a max-depth leaf that
    could not split further) gets a bin of its own — partitions are allowed
    to overflow rather than split a leaf across partitions.

    Ties in size are broken by key order for determinism.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    ordered = sorted(items, key=lambda kv: (-kv[1], str(kv[0])))
    bins: list[list[Hashable]] = []
    remaining: list[int] = []
    for key, size in ordered:
        if size < 0:
            raise ValueError(f"negative item size for {key!r}")
        placed = False
        for i, room in enumerate(remaining):
            if size <= room:
                bins[i].append(key)
                remaining[i] = room - size
                placed = True
                break
        if not placed:
            bins.append([key])
            # May go negative for an oversized item, closing its bin.
            remaining.append(capacity - size)
    return bins


def assign_partitions(tree: SigTree, capacity: int) -> int:
    """Assign partition ids to every leaf of a Tardis-G sigTree.

    For each internal (or root) node, its *leaf* children are packed
    together by FFD; deeper subtrees are handled by their own parents, so
    every group packs true siblings.  Ids are then propagated into the
    ``partition_ids`` sets of all ancestors.

    Returns the total number of partitions created.
    """
    next_pid = 0
    for parent in tree.iter_nodes():
        leaf_children = [c for c in parent.children.values() if c.is_leaf]
        if parent.is_root and parent.is_leaf:
            # Degenerate single-node tree: the root itself is the only leaf.
            parent.partition_id = next_pid
            parent.partition_ids.add(next_pid)
            tree.version += 1
            return next_pid + 1
        if not leaf_children:
            continue
        sizes = [(child.signature, child.count) for child in leaf_children]
        by_signature = {child.signature: child for child in leaf_children}
        for group in first_fit_decreasing(sizes, capacity):
            for signature in group:
                by_signature[signature].partition_id = next_pid
            next_pid += 1
    _synchronize_id_lists(tree)
    return next_pid


def _synchronize_id_lists(tree: SigTree) -> None:
    """Fold leaf partition ids into every ancestor's ``partition_ids``.

    Every partition (re)assignment ends here, so this is where the tree's
    version moves on and Tardis-G's routing table goes stale.
    """
    for leaf in tree.leaves():
        if leaf.partition_id is None:
            raise RuntimeError(f"leaf {leaf.signature!r} missed assignment")
        node: SigTreeNode | None = leaf
        while node is not None:
            node.partition_ids.add(leaf.partition_id)
            node = node.parent
    tree.version += 1
