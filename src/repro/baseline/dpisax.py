"""DPiSAX baseline: distributed partitioned iSAX (paper §II-D).

Reimplements the comparison system of Yagoubi et al. (ICDM 2017) as the
paper evaluates it — extended to a *clustered* local index and to
exact-match / kNN-approximate queries:

1. Sample signatures cluster-wide, convert with a **large initial
   cardinality** (512 = 9 bits, Table II) to reserve split headroom.
2. Build an iBT over the sample on the master; its leaves become the
   **partition table** global index.
3. Convert all series (again at 512 cardinality) and route each through
   the partition table — the per-record variable-cardinality matching that
   dominates baseline construction time.
4. Build one local iBT per partition.

Queries mirror TARDIS's entry points so benchmarks can drive both systems
uniformly: exact match loads the routed partition (no Bloom filter in the
baseline) and kNN answers from the local iBT's target node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import BlockStorage, SimCluster, SimulationLedger
from ..cluster.costmodel import estimate_bytes, timed_stage
from ..tsdb.isax import ISaxWord
from ..tsdb.paa import paa_transform
from ..tsdb.sax import sax_symbols
from ..tsdb.series import TimeSeriesDataset
from .ibt import IbtNode, IbtTree
from .partition_table import PartitionTable

__all__ = [
    "DpisaxConfig",
    "DpisaxPartition",
    "DpisaxIndex",
    "build_dpisax_index",
    "convert_records_baseline",
    "exact_match_baseline",
    "knn_baseline",
]


@dataclass(frozen=True)
class DpisaxConfig:
    """Baseline parameters (Table II: initial cardinality 512)."""

    word_length: int = 8
    #: 2^9 = 512, the baseline's default — large to guarantee enough split
    #: headroom, at the cost of conversion and storage (paper §II-C).
    cardinality_bits: int = 9
    g_max_size: int = 500
    l_max_size: int = 50
    sampling_fraction: float = 0.10
    n_workers: int = 8
    split_policy: str = "stats"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cardinality_bits <= 0:
            raise ValueError("cardinality_bits must be positive")
        if self.g_max_size <= 0 or self.l_max_size <= 0:
            raise ValueError("split thresholds must be positive")
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError("sampling_fraction must be in (0, 1]")


def convert_records_baseline(
    records: list[tuple[int, np.ndarray]], config: DpisaxConfig
) -> list[tuple[ISaxWord, int, np.ndarray]]:
    """``(rid, ts) -> (full-cardinality ISaxWord, rid, ts)``.

    SAX discretization is vectorized, but assembling character-level words
    is inherently per-record/per-segment — the conversion cost the paper
    attributes to the large initial cardinality.
    """
    if not records:
        return []
    values = np.vstack([ts for _, ts in records])
    paa = paa_transform(values, config.word_length)
    symbols = sax_symbols(paa, config.cardinality_bits)
    bits = (config.cardinality_bits,) * config.word_length
    return [
        (ISaxWord(tuple(int(s) for s in symbols[i]), bits), rid, ts)
        for i, (rid, ts) in enumerate(records)
    ]


@dataclass
class DpisaxPartition:
    """One baseline partition: a local iBT plus bookkeeping."""

    partition_id: int
    tree: IbtTree
    n_records: int
    clustered: bool
    nbytes: int

    def target_node(self, full_word: ISaxWord, k: int) -> IbtNode:
        """Lowest node on the word's path holding ≥ k entries."""
        if k <= 0:
            raise ValueError("k must be positive")
        best = self.tree.root
        for node in self.tree.path(full_word):
            if node.count >= k:
                best = node
            else:
                break
        return best

    def exact_lookup(self, full_word: ISaxWord, query: np.ndarray) -> list[int]:
        """Record ids of series identical to the query."""
        if not self.clustered:
            raise RuntimeError("exact lookup needs a clustered partition")
        node = self.tree.descend(full_word)
        if not node.is_leaf:
            return []
        return [
            rid
            for word, rid, series in node.entries
            if word == full_word
            and series is not None
            and np.array_equal(series, query)
        ]

    def index_nbytes(self) -> int:
        return self.tree.estimated_nbytes(include_entries=True)


@dataclass
class DpisaxIndex:
    """A fully built DPiSAX index."""

    config: DpisaxConfig
    table: PartitionTable
    partitions: dict[int, DpisaxPartition]
    dataset_name: str
    n_records: int
    series_length: int
    clustered: bool
    construction_ledger: SimulationLedger = field(default_factory=SimulationLedger)

    def convert_query(self, query: np.ndarray) -> ISaxWord:
        paa = paa_transform(np.asarray(query, dtype=np.float64), self.config.word_length)
        symbols = sax_symbols(paa, self.config.cardinality_bits)
        bits = (self.config.cardinality_bits,) * self.config.word_length
        return ISaxWord(tuple(int(s) for s in symbols), bits)

    def load_partition(
        self, partition_id: int, ledger: SimulationLedger | None = None,
    ) -> DpisaxPartition:
        """Fetch a partition; like TARDIS, loads are block-granular (one
        whole HDFS block per access) so at least one nominal block is
        charged."""
        partition = self.partitions[partition_id]
        if ledger is not None:
            cost_model = SimCluster(self.config.n_workers).cost_model
            io = cost_model.disk_read_time(
                max(partition.nbytes, self.block_nbytes())
            )
            ledger.record_stage("query/load partition", wall_s=io, io_s=io, tasks=1)
        return partition

    def block_nbytes(self) -> int:
        """Nominal storage-block payload (capacity × record size)."""
        return self.config.g_max_size * (self.series_length * 8 + 16)

    def global_index_nbytes(self) -> int:
        """Global index size: the partition table only (Fig. 13a)."""
        return self.table.nbytes()

    def local_index_nbytes(self) -> int:
        return sum(p.index_nbytes() for p in self.partitions.values())


def build_dpisax_index(
    dataset: TimeSeriesDataset,
    config: DpisaxConfig | None = None,
    cluster: SimCluster | None = None,
    clustered: bool = True,
    storage: BlockStorage | None = None,
) -> DpisaxIndex:
    """Build the DPiSAX baseline end to end on the cluster engine.

    Stage labels parallel :func:`repro.core.builder.build_tardis_index` so
    breakdown figures can compare phase by phase.
    """
    config = config or DpisaxConfig()
    cluster = cluster or SimCluster(n_workers=config.n_workers)
    ledger = cluster.ledger
    if dataset.length < config.word_length:
        raise ValueError("series length is shorter than the word length")
    from ..core.builder import _require_normalized

    _require_normalized(dataset)
    if storage is None:
        storage = BlockStorage.from_dataset(dataset, config.g_max_size)

    # ---- Global phase: sampled signatures -> master iBT -> partition table.
    sampled_blocks = storage.sample_blocks(config.sampling_fraction, seed=config.seed)
    sample = cluster.read_blocks(sampled_blocks, label="global/sample+convert")
    words = sample.map_partitions(
        lambda records: [
            (word, rid) for word, rid, _ts in convert_records_baseline(records, config)
        ],
        label="global/sample+convert",
    )
    sampled_words = words.collect(label="global/aggregate")
    sampled_fraction = max(1e-9, len(sampled_words) / max(1, len(dataset)))
    sample_threshold = max(1, round(config.g_max_size * sampled_fraction))

    def build_global_tree() -> IbtTree:
        # binary_root: DPiSAX's partitioning tree splits binarily from the
        # root so leaf regions track the partition capacity (one partition
        # per leaf); the fixed 2^w first level only applies to local iBTs.
        tree = IbtTree(
            word_length=config.word_length,
            max_bits=config.cardinality_bits,
            split_threshold=sample_threshold,
            split_policy=config.split_policy,
            binary_root=True,
        )
        for word, rid in sampled_words:
            tree.insert((word, rid, None))
        return tree

    global_tree = cluster.run_on_driver(
        build_global_tree, label="global/build index tree"
    )
    table = cluster.run_on_driver(
        lambda: _table_from_tree(global_tree, config),
        label="global/partition assignment",
    )

    # ---- Local phase: full conversion, expensive table routing, local iBTs.
    data = cluster.read_storage(storage, label="local/read data")
    converted = data.map_partitions(
        lambda records: convert_records_baseline(records, config),
        label="local/convert data",
    )
    broadcast = cluster.broadcast(table, label="local/broadcast table")
    partitioner: PartitionTable = broadcast.value
    n_partitions = max(1, len(partitioner))
    shuffled = converted.partition_by(
        lambda records: [partitioner.route(word) for word, _, _ in records],
        n_partitions=n_partitions,
        label="local/shuffle",
    )
    partitions: dict[int, DpisaxPartition] = {}

    def build_one(index: int, records: list) -> tuple[list, float]:
        tree = IbtTree(
            word_length=config.word_length,
            max_bits=config.cardinality_bits,
            split_threshold=config.l_max_size,
            split_policy=config.split_policy,
        )
        nbytes = 0
        for word, rid, ts in records:
            tree.insert((word, rid, ts if clustered else None))
            nbytes += estimate_bytes(ts) + config.word_length * 3 + 8
        partitions[index] = DpisaxPartition(
            partition_id=index,
            tree=tree,
            n_records=len(records),
            clustered=clustered,
            nbytes=nbytes,
        )
        return [], 0.0

    cluster._run_stage("local/build index", shuffled.partitions, build_one)

    return DpisaxIndex(
        config=config,
        table=table,
        partitions=partitions,
        dataset_name=dataset.name,
        n_records=len(dataset),
        series_length=dataset.length,
        clustered=clustered,
        construction_ledger=ledger,
    )


def _table_from_tree(tree: IbtTree, config: DpisaxConfig) -> PartitionTable:
    """One partition per global-iBT leaf (DPiSAX's partition scheme)."""
    table = PartitionTable(word_length=config.word_length)
    for pid, leaf in enumerate(tree.leaves()):
        if leaf.word is None:
            # Degenerate: the sampled tree never split; a single catch-all
            # key at 1-bit-per-segment cardinality covers everything.
            table.add(
                ISaxWord((0,) * config.word_length, (1,) * config.word_length), pid
            )
            continue
        table.add(leaf.word, pid)
    return table


# ---------------------------------------------------------------------------
# Baseline query processing
# ---------------------------------------------------------------------------


@dataclass
class BaselineQueryResult:
    """Answer plus accounting, mirroring the TARDIS result types."""

    record_ids: list[int]
    distances: list[float] = field(default_factory=list)
    partitions_loaded: int = 0
    candidates_examined: int = 0
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s

    @property
    def found(self) -> bool:
        return bool(self.record_ids)


def exact_match_baseline(index: DpisaxIndex, query: np.ndarray) -> BaselineQueryResult:
    """Baseline exact match: route → load partition → leaf lookup.

    No Bloom filter: even absent queries pay the partition load, which is
    why Tardis-BF halves the Fig. 14 average on the 50 %-absent workload.
    """
    result = BaselineQueryResult(record_ids=[])
    with timed_stage(result.ledger, "query/route"):
        word = index.convert_query(query)
        pid = index.table.route(word)
    partition = index.load_partition(pid, ledger=result.ledger)
    result.partitions_loaded = 1
    with timed_stage(result.ledger, "query/local search"):
        result.record_ids = partition.exact_lookup(word, np.asarray(query))
    return result


def knn_baseline(index: DpisaxIndex, query: np.ndarray, k: int) -> BaselineQueryResult:
    """Baseline kNN approximate: answer from the local iBT's target node.

    Clustered extension per the paper: candidates are re-ranked by true
    Euclidean distance on the raw series stored in the leaves.
    """
    if not index.clustered:
        raise RuntimeError("baseline kNN refinement needs a clustered index")
    from ..tsdb.distance import batch_euclidean

    result = BaselineQueryResult(record_ids=[])
    with timed_stage(result.ledger, "query/route"):
        word = index.convert_query(query)
        pid = index.table.route(word)
    partition = index.load_partition(pid, ledger=result.ledger)
    result.partitions_loaded = 1
    with timed_stage(result.ledger, "query/local search"):
        target = partition.target_node(word, k)
        candidates = partition.tree.entries_under(target)
        result.candidates_examined = len(candidates)
        if not candidates:
            return result
        values = np.vstack([entry[2] for entry in candidates])
        distances = batch_euclidean(np.asarray(query, dtype=np.float64), values)
        order = np.argsort(distances, kind="stable")[:k]
        result.record_ids = [int(candidates[i][1]) for i in order]
        result.distances = [float(distances[i]) for i in order]
    return result
