"""Tardis-L: per-partition local index + Bloom filter (paper §IV-C).

Each partition produced by the Tardis-G shuffle owns a *columnar block*
(:class:`~repro.core.columnar.ColumnarBlock`): one contiguous
``(n_records, series_length)`` value matrix plus parallel record-id,
signature, and pre-decoded SAX-symbol arrays.  The partition's sigTree
leaves store *row indices* into that block, so candidate collection
returns integer index arrays and distance ranking is a single
``gather_euclidean`` over the block's rows — no per-entry tuples, no
``np.vstack`` on the query path.  The un-clustered variant keeps the
block without its value matrix (signatures and ids only, as DPiSAX does
natively).

A Bloom filter over the ``isaxt(b)`` signatures is populated
synchronously with tree insertion, giving exact-match queries a cheap
in-memory existence test before paying the partition-load latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..bloom import BloomFilter
from ..cluster.costmodel import estimate_bytes
from ..telemetry.perf import KERNELS as _KERNELS
from ..tsdb.distance import as_gap_table, table_index
from .columnar import ColumnarBlock
from .config import TardisConfig
from .isaxt import batch_decode_signatures
from .region import RegionSynopsis
from .sigtree import SigTree, SigTreeNode

__all__ = [
    "LocalPartition",
    "ScanStats",
    "build_local_partition",
    "build_partition",
    "REGION_PREFIX_BITS",
]

#: Cardinality bits of the per-partition region synopsis
#: (:class:`~repro.core.region.RegionSynopsis`): every stored entry's
#: signature prefix at this level is recorded.
REGION_PREFIX_BITS = 2

#: Relative slack of the row bound's comparison.  A row's bound and its
#: true distance can be equal in exact arithmetic (a piecewise-constant
#: series sitting on breakpoints) and then round a few ulps apart in
#: either order — ``~(w + n) / 2`` ulps at worst, 1e-13 at length 1024 —
#: so the filter keeps a row until its bound clears the threshold by
#: more than any such rounding: soundness over pruning power.
_ROW_BOUND_SLACK = 1e-9

#: Legacy entry layout, still used at API edges (build input, validate):
#: (full-cardinality signature, record id, series-or-None).
Entry = tuple[str, int, "np.ndarray | None"]


@dataclass
class ScanStats:
    """Node-level accounting of one sigTree traversal.

    Passed (optionally) into the scan helpers below so query strategies
    can report how many tree nodes they actually touched versus pruned —
    the per-operator numbers behind the paper's Fig. 14-16 analysis and
    the telemetry layer's ``query_nodes_*`` counters.
    """

    visited: int = 0
    pruned: int = 0


class _NodeTable:
    """One Tardis-L tree flattened for the pruned scan.

    All nodes in depth-first pre-order, so a subtree is the contiguous
    range ``[i, subtree_end[i])``; the leaves' entries as CSR (``rows``
    with the owning node of each in ``row_node``).  ``index`` is the
    nodes' ``(N, w)`` gap-table index, the root at the whole-line column.
    Immutable; tagged with the tree version read before the walk.
    """

    __slots__ = (
        "version", "position", "index", "parent", "subtree_end",
        "rows", "row_node",
    )

    def __init__(self, tree: SigTree):
        self.version = tree.version
        nodes: list[SigTreeNode] = []
        parent: list[int] = []
        rows: list[int] = []
        counts: list[int] = []
        stack = [(tree.root, 0)]
        while stack:
            node, parent_at = stack.pop()
            at = len(nodes)
            nodes.append(node)
            parent.append(parent_at)
            # One read of the list: rows and counts must agree even if a
            # writer on another thread appends meanwhile.
            entries = tuple(node.entries)
            rows.extend(entries)
            counts.append(len(entries))
            stack.extend((child, at) for child in node.children.values())
        n_nodes = len(nodes)
        subtree_end = list(range(1, n_nodes + 1))
        for at in range(n_nodes - 1, 0, -1):
            if subtree_end[at] > subtree_end[parent[at]]:
                subtree_end[parent[at]] = subtree_end[at]
        #: Signature → position (signatures are unique within a tree and,
        #: unlike node identities, survive pickling with the table).
        self.position = {node.signature: at for at, node in enumerate(nodes)}
        self.parent = np.asarray(parent, dtype=np.intp)
        self.subtree_end = subtree_end
        w = tree.word_length
        self.index = np.empty((n_nodes, w), dtype=np.intp)
        self.index[0] = table_index(np.zeros(w, dtype=np.intp), 0)
        by_layer: dict[int, list[int]] = {}
        for at in range(1, n_nodes):
            by_layer.setdefault(nodes[at].layer, []).append(at)
        for ats in by_layer.values():
            # One layer shares a signature length, so it decodes at once.
            symbols, bits = batch_decode_signatures(
                np.asarray([nodes[at].signature for at in ats]), w
            )
            self.index[ats] = table_index(symbols, bits)
        self.rows = np.fromiter(rows, dtype=np.int64, count=len(rows))
        self.row_node = np.repeat(np.arange(n_nodes), counts)


@dataclass
class LocalPartition:
    """One partition: columnar block, local sigTree, Bloom filter."""

    partition_id: int
    tree: SigTree
    bloom: BloomFilter
    n_records: int
    clustered: bool
    #: Simulated on-disk payload size (drives partition-load I/O charges).
    nbytes: int
    #: Region synopsis of the records actually stored here.  Tiny (bounded
    #: by the number of distinct coarse regions), kept in memory with the
    #: Bloom filter, and the basis of sound pre-load pruning.
    region: RegionSynopsis = None  # type: ignore[assignment]
    #: Columnar record storage; sigTree leaves index into it.
    block: ColumnarBlock = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.region is None:
            self.region = RegionSynopsis(self.tree.word_length)
        self._region_chars = (
            min(REGION_PREFIX_BITS, self.tree.max_bits) * self.tree.per_plane
        )

    @property
    def region_prefixes(self) -> set:
        return self.region.region_prefixes

    def region_prefix(self, full_signature: str) -> str:
        """The coarse prefix a stored signature adds to the synopsis."""
        return full_signature[: self._region_chars]

    def region_bound(self, query_paa: np.ndarray, series_length: int) -> float:
        """Sound lower bound on the distance from the query to ANY record
        in this partition (min MINDIST over the synopsis regions)."""
        return self.region.bound(query_paa, series_length)

    # -- exact match ------------------------------------------------------------

    def might_contain(self, signature: str) -> bool:
        """Bloom-filter test (no false negatives)."""
        return signature in self.bloom

    def exact_lookup(
        self, signature: str, query: np.ndarray,
        leaf: SigTreeNode | None = None,
    ) -> list[int]:
        """Record ids of series identical to ``query`` (paper §V-A step 4).

        Traverses Tardis-L to the covering leaf — or takes ``leaf`` from a
        caller that already descended — and compares the leaf's block
        rows against the query in one vectorized pass; requires a
        clustered partition (raw series present).
        """
        if not self.clustered:
            raise RuntimeError("exact lookup needs a clustered partition")
        node = self.tree.descend(signature) if leaf is None else leaf
        if not node.is_leaf or not node.entries:
            return []
        rows = np.fromiter(node.entries, dtype=np.int64, count=len(node.entries))
        query = np.asarray(query, dtype=np.float64)
        if self.block.values.shape[1] != query.shape[0]:
            return []
        hit = self.block.signatures[rows] == signature
        if not hit.any():
            return []
        rows = rows[hit]
        equal = (self.block.values[rows] == query[None, :]).all(axis=1)
        return [int(r) for r in self.block.record_ids[rows[equal]]]

    # -- kNN support ---------------------------------------------------------------

    def target_node(self, signature: str, k: int) -> SigTreeNode:
        """The lowest node on the signature's path holding ≥ k entries.

        Paper §V-B: the *target node* is the leaf or internal node with more
        data entries than ``k`` at the lowest position; if it is internal,
        every child on the path holds fewer than ``k``.  When even the root
        holds fewer than ``k`` the root is returned (the whole partition is
        the candidate set).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        node = self.tree.root
        while not node.is_leaf:
            child_key = self.tree._prefix(signature, node.layer + 1)
            child = node.children.get(child_key)
            if child is None or child.count < k:
                return node
            node = child
        return node

    def entries_under(
        self, node: SigTreeNode, stats: ScanStats | None = None
    ) -> np.ndarray:
        """Block row indices of all entries in the subtree under ``node``.

        The row array (and the subtree's node count, so ``stats`` stays
        exact) is cached on the node, keyed on the tree's mutation
        version — repeated target-node scans cost one dict hit instead of
        a traversal.  The cached array is frozen; callers only read it.
        """
        t0 = perf_counter() if _KERNELS.enabled else 0.0
        # Read before the walk: a walk that overlaps a mutation is filed
        # under the old version and dies with the mutation's bump.
        version = self.tree.version
        cached = node.subtree_rows
        if cached is not None and cached[0] == version:
            _version, rows, n_nodes = cached
            if stats is not None:
                stats.visited += n_nodes
            if _KERNELS.enabled:
                _KERNELS.record("leaf_scan", elements=len(rows),
                                seconds=perf_counter() - t0)
            return rows
        collected: list[int] = []
        n_nodes = 0
        stack = [node]
        while stack:
            current = stack.pop()
            n_nodes += 1
            collected.extend(current.entries)
            # First child first: the order SigTree.bulk_load makes them in
            # from these rows, so a saved and reloaded tree keeps it.
            stack.extend(reversed(current.children.values()))
        if stats is not None:
            stats.visited += n_nodes
        rows = np.fromiter(collected, dtype=np.int64, count=len(collected))
        rows.setflags(write=False)
        node.subtree_rows = (version, rows, n_nodes)
        if _KERNELS.enabled:
            _KERNELS.record("leaf_scan", elements=len(collected),
                            seconds=perf_counter() - t0)
        return rows

    def _node_table(self) -> _NodeTable:
        """The tree's flat scan table, rebuilt when the tree has moved on.

        Concurrent readers may each build one; each publishes a finished
        table in a single assignment.
        """
        table = self.tree.node_table
        if table is None or table.version != self.tree.version:
            table = self.tree.node_table = _NodeTable(self.tree)
        return table

    def pruned_entries(
        self,
        query_paa,
        threshold: float,
        series_length: int,
        skip: SigTreeNode | None = None,
        stats: ScanStats | None = None,
    ) -> np.ndarray:
        """Row indices in all subtrees whose MINDIST ≤ ``threshold``.

        The lower-bound property guarantees no series closer than
        ``threshold`` (non-negative) is pruned.  ``skip`` (typically the
        already-scanned target node) is excluded with its subtree to
        avoid recollecting its entries.  ``stats`` (when given) counts
        visited vs. MINDIST-pruned nodes.  ``query_paa`` is the query's
        PAA word or its :class:`~repro.tsdb.distance.GapTable`.

        One kernel call prices every node of the tree and a mask stands
        in for the top-down walk: SAX breakpoints nest exactly, so a
        node's bound is never below its parent's and the kept nodes are
        the ones a walk would reach.  A node counts as pruned when its
        parent was kept and it was not.  Rows come back in depth-first
        pre-order of their leaves.
        """
        t0 = perf_counter() if _KERNELS.enabled else 0.0
        table = self._node_table()
        gaps = as_gap_table(query_paa, self.tree.max_bits)
        keep = gaps.mindist(table.index, series_length) <= threshold
        at = None if skip is None else table.position.get(skip.signature)
        if at is not None:
            keep[at:table.subtree_end[at]] = False
        if stats is not None:
            cut = ~keep & keep[table.parent]
            if at is not None:
                cut[at:table.subtree_end[at]] = False
            stats.visited += int(keep.sum())
            stats.pruned += int(cut.sum())
        rows = table.rows[keep[table.row_node]]
        if _KERNELS.enabled:
            _KERNELS.record("leaf_scan", elements=len(rows),
                            seconds=perf_counter() - t0)
        return rows

    def rows_within(
        self,
        rows: np.ndarray,
        query_paa,
        threshold: float,
        series_length: int,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(rows, bounds)``: the ``rows`` whose own MINDIST is ≤
        ``threshold``, in order, and those MINDISTs.

        The row-level lower bound between :meth:`pruned_entries` and the
        distance pass: each row is priced from its full-cardinality
        symbols (``block.symbols``) through the query's gap table — the
        node filter's kernel — and kept unless its bound exceeds the
        threshold by more than float rounding can (``_ROW_BOUND_SLACK``),
        so no series whose computed distance is within ``threshold`` is
        dropped.  A leaf's stripes contain its rows' stripes, so a row's
        bound is never below the bound of the leaf that kept it.  An
        infinite threshold filters nothing and prices nothing: the rows
        come back as given, with ``None`` for bounds.
        """
        if threshold == np.inf:
            return rows, None
        if len(rows) == 0:
            return rows, np.empty(0)
        gaps = as_gap_table(query_paa, self.tree.max_bits)
        index = self.block.symbol_index(self.tree.max_bits).take(rows, axis=0)
        bounds = gaps.mindist(index, series_length)
        keep = bounds <= threshold * (1.0 + _ROW_BOUND_SLACK)
        return rows[keep], bounds[keep]

    def all_entries(self) -> list[Entry]:
        """Legacy tuple materialization, in tree-traversal order.

        Kept for the structural consumers (validate, rebalance, tests);
        the query path and persistence never call it.
        """
        rows = self.entries_under(self.tree.root)
        return [self.block.entry_at(int(row)) for row in rows]

    # -- maintenance ------------------------------------------------------------

    def live_record_ids(self) -> set:
        """Ids of the records the tree references.  Block rows are
        append-only — a deleted record's row stays behind, detached — so
        this, not the block's id column, says what the partition holds."""
        rows = self.entries_under(self.tree.root)
        return set(self.block.record_ids[rows].tolist())

    def insert_records(
        self,
        signatures: list,
        record_ids: list,
        values: np.ndarray | None,
        symbols: np.ndarray | None = None,
        with_bloom: bool = True,
    ) -> list:
        """Append records to the block and index them, in order.

        The one write body: the rows go into the block in one
        :meth:`~repro.core.columnar.ColumnarBlock.append_rows`, then each
        is threaded through the tree (leaves split as they overflow, the
        version moves once per row) and the region synopsis, and the
        group goes into the Bloom filter in one
        :meth:`~repro.bloom.BloomFilter.add_many` — the state row-by-row
        insertion leaves.  ``symbols`` is the rows' ``(m, w)`` SAX symbol
        matrix when the caller's conversion still has it; without it the
        signatures are decoded.
        Returns the region prefixes the synopsis gained, in first-seen
        order (what cached region bounds must be told about).
        """
        if symbols is None:
            symbols, _bits = batch_decode_signatures(
                signatures, self.tree.word_length
            )
        row = self.block.append_rows(
            signatures, record_ids, values if self.clustered else None, symbols
        )
        gained = []
        for at, signature in enumerate(signatures):
            self.tree.insert_entry(row + at)
            prefix = self.region_prefix(signature)
            if prefix not in self.region_prefixes:
                self.region.add([prefix])
                gained.append(prefix)
        if with_bloom:
            self.bloom.add_many(signatures)
        self.n_records += len(signatures)
        self.nbytes += (
            sum(map(len, signatures)) + 8 * len(signatures)
            + estimate_bytes(values)
        )
        return gained

    def insert_record(
        self,
        signature: str,
        record_id: int,
        series: np.ndarray | None,
        with_bloom: bool = True,
    ) -> list:
        """:meth:`insert_records` of one record."""
        return self.insert_records(
            [signature], [record_id],
            None if series is None else np.asarray(series)[None, :],
            with_bloom=with_bloom,
        )

    def remove_record(
        self, record_id: int, series: np.ndarray | None = None
    ) -> Entry | None:
        """Detach a record's row from the tree (block row becomes dead).

        ``series``, when given, must also match the stored values (the
        exact-delete contract).  Returns the removed entry tuple, or None
        when no live row matches.  Counts along the leaf's ancestor path
        are decremented; the Bloom filter and region synopsis are
        conservative structures and keep the stale signature (no false
        negatives are introduced).
        """
        matches = np.flatnonzero(self.block.record_ids == record_id)
        for row in matches:
            if series is not None and not np.array_equal(
                self.block.values[row], series
            ):
                continue
            leaf = self.tree.descend(self.block.signature_at(int(row)))
            if int(row) not in leaf.entries:
                continue
            leaf.entries.remove(int(row))
            node = leaf
            while node is not None:
                node.count -= 1
                node = node.parent
            self.tree.version += 1  # stale row caches and node table
            self.n_records -= 1
            entry = self.block.entry_at(int(row))
            self.nbytes -= len(entry[0]) + 8 + estimate_bytes(entry[2])
            return entry
        return None

    def index_nbytes(self) -> int:
        """Local index size excluding the indexed data (Fig. 13b)."""
        return self.tree.estimated_nbytes(include_entries=True) + self.bloom.nbytes


def build_partition(
    partition_id: int,
    source: ColumnarBlock,
    rows,
    config: TardisConfig,
    clustered: bool = True,
    with_bloom: bool = True,
) -> LocalPartition:
    """Construct Tardis-L for one partition (the ``mapPartition`` of Fig. 8)
    from rows ``rows`` of ``source``: the dataset's columns in a build,
    the split partition's block in a rebalance.

    The columnar block is gathered first — one fancy index per column,
    the signatures and symbols the conversion already computed — then
    the sigTree is bulk-loaded over its rows and the Bloom filter (one
    batched insert) and region synopsis are encoded from the same
    signature array, as the paper's single-pass pipeline does.
    ``with_bloom=False`` models the NoBF variant — a (tiny) filter is
    still allocated so the structure stays uniform, but nothing is
    inserted and queries must not consult it.  The simulated payload
    (``nbytes``) counts every row's series the source holds, also when
    an un-clustered partition does not keep them.
    """
    rows = np.asarray(rows, dtype=np.intp)
    tree = SigTree(
        word_length=config.word_length,
        max_bits=config.cardinality_bits,
        split_threshold=config.l_max_size,
    )
    bloom = BloomFilter.with_capacity(
        expected_items=max(1, len(rows)), fp_rate=config.bloom_fp_rate
    )
    block = ColumnarBlock.from_rows(
        rows, source.record_ids, source.values if clustered else None,
        source.signatures, source.symbols,
    )
    tree.attach_block(block)
    partition = LocalPartition(
        partition_id=partition_id,
        tree=tree,
        bloom=bloom,
        n_records=len(rows),
        clustered=clustered,
        nbytes=0,
        block=block,
    )
    tree.bulk_load()
    signatures = block.signatures.tolist()
    if with_bloom:
        bloom.add_many(signatures)
    chars = partition._region_chars
    partition.region.add({s[:chars] for s in signatures})
    # estimate_bytes of every record, summed by column.
    series_nbytes = (
        0 if source.values is None
        else source.values.dtype.itemsize * source.values.shape[1]
    )
    partition.nbytes = (
        sum(map(len, signatures)) + (8 + series_nbytes) * len(rows)
    )
    return partition


def build_local_partition(
    partition_id: int,
    records: list[Entry],
    config: TardisConfig,
    clustered: bool = True,
    with_bloom: bool = True,
) -> LocalPartition:
    """:func:`build_partition` of ``(signature, record_id, series)``
    tuples: the tuple entry point, kept for callers that hold tuples."""
    source = ColumnarBlock.from_records(
        records, config.word_length,
        clustered=bool(records) and records[0][2] is not None,
    )
    return build_partition(
        partition_id, source, np.arange(len(records)), config,
        clustered=clustered, with_bloom=with_bloom,
    )
