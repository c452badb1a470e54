"""End-to-end TARDIS index construction on the cluster engine (paper §IV).

Orchestrates the full pipeline of Figs. 7-8 on a :class:`SimCluster`:

* **Global phase** — block-level sample → signature/frequency pairs →
  layer-by-layer node statistics → skeleton building → FFD partition
  assignment.  Stage labels match the Fig. 11 breakdown.
* **Local phase** — full read → batch iSAX-T conversion → broadcast of
  Tardis-G → shuffle keyed by one Tardis-G ``route_many`` per source
  partition (a stable scatter; bytes priced from the records' shapes) →
  per-partition Tardis-L + Bloom-filter construction in one
  ``mapPartition`` pass.

Both phases move *row indices* into the dataset's ``(n, length)``
matrix, not records: storage blocks hold rows
(:meth:`~repro.cluster.BlockStorage.of_rows`), each block converts with
one :func:`convert_batch` into dataset-wide signature and symbol
columns, the shuffle scatters rows, and each partition gathers its
columns with one fancy index apiece
(:func:`~repro.core.local_index.build_partition`) — ParIS+'s convert →
bulk-route → build over whole arrays (arXiv:2009.01614).  The simulator
prices every stage from the same shapes the tuples had, so the ledger
is the one a tuple shuffle records.

The resulting :class:`TardisIndex` owns the global index, all local
partitions, and the construction ledger consumed by the benchmarks.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..cluster import BlockStorage, CostModel, SimCluster, SimulationLedger
from ..faults.errors import PartitionUnavailableError
from ..faults.injector import get_injector
from ..telemetry.metrics import get_registry
from ..telemetry.perf import KERNELS as _KERNELS
from ..telemetry.spans import get_tracer
from ..tsdb.paa import paa_transform
from ..tsdb.sax import sax_symbols
from ..tsdb.series import TimeSeriesDataset
from .config import TardisConfig
from .global_index import (
    TardisGlobalIndex,
    collect_layer_statistics,
)
from .columnar import ColumnarBlock
from .isaxt import batch_signatures, chars_per_plane
from .local_index import LocalPartition, build_partition
from .region import RegionMatrix

__all__ = [
    "IngestReport",
    "RoutedBatch",
    "TardisIndex",
    "build_tardis_index",
    "convert_batch",
    "convert_records",
]

logger = logging.getLogger(__name__)

#: Default simulated hardware: what a partition load is charged against.
_COST_MODEL = CostModel()


def convert_batch(
    values: np.ndarray, config: TardisConfig
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``(n, length)`` series → ``(isaxt(b) signatures, (n, w) PAA words,
    (n, w) SAX symbols)``.

    One PAA + SAX + transpose-encode pass over the whole matrix — the
    cheap, small-initial-cardinality conversion TARDIS is credited with
    (the baseline's 512-cardinality equivalent lives in
    :mod:`repro.baseline.dpisax`).  Construction, batched appends and
    batched queries all convert here.
    """
    paa = paa_transform(values, config.word_length)
    symbols = sax_symbols(paa, config.cardinality_bits)
    return batch_signatures(symbols, config.cardinality_bits), paa, symbols


def convert_records(
    records: list[tuple[int, np.ndarray]], config: TardisConfig
) -> list[tuple[str, int, np.ndarray]]:
    """``(rid, ts) -> (isaxt(b), rid, ts)``: :func:`convert_batch` over a
    whole partition's records (the tuple entry point; the build converts
    rows of the dataset's matrix)."""
    if not records:
        return []
    signatures, _paa, _symbols = convert_batch(
        np.array([ts for _, ts in records]), config
    )
    return [
        (signatures[i], rid, ts) for i, (rid, ts) in enumerate(records)
    ]


class RoutedBatch(NamedTuple):
    """A write batch converted and routed but not yet applied: what
    :meth:`TardisIndex.prepare_batch` returns and :meth:`TardisIndex.ingest`
    takes in place of the raw matrix, so a caller that must route *before*
    it applies (serving: route → WAL → apply) converts each row once."""

    values: np.ndarray
    signatures: list
    partition_ids: list
    #: The ``(n, w)`` SAX symbols the conversion computed on the way to
    #: the signatures; a batch built without them has them decoded back.
    symbols: np.ndarray | None = None


@dataclass
class IngestReport:
    """What one batched append did to the index (see :meth:`TardisIndex.ingest`).

    ``regions_added`` names the partitions whose coarse region synopsis
    *grew* — the signal cache layers need: a new region can shrink a
    partition's MINDIST bound, so Multi-Partitions Access answers that
    pruned it are no longer trustworthy (docs/SERVING.md).
    """

    record_ids: list = field(default_factory=list)
    partition_ids: list = field(default_factory=list)
    #: Distinct partitions touched, in first-touch order.
    touched: list = field(default_factory=list)
    #: partition id -> new region prefixes its synopsis gained.
    regions_added: dict = field(default_factory=dict)


@dataclass
class TardisIndex:
    """A fully built TARDIS index over one dataset."""

    config: TardisConfig
    global_index: TardisGlobalIndex
    partitions: dict[int, LocalPartition]
    dataset_name: str
    n_records: int
    series_length: int
    clustered: bool
    construction_ledger: SimulationLedger = field(default_factory=SimulationLedger)

    def load_partition(
        self, partition_id: int, ledger: SimulationLedger | None = None,
    ) -> LocalPartition:
        """Fetch a partition, charging its disk-load cost to ``ledger``.

        Partition loads dominate query latency in the paper (one 128 MB
        HDFS block per access) and blocks are read whole regardless of
        fill, so the charge is at least one nominal block
        (:meth:`block_nbytes`).  Queries must route every load through
        here so the simulated timings stay honest.

        With a cache attached (:meth:`enable_cache`), resident partitions
        load for free — the "hot data in memory" behaviour the paper's
        Spark deployment provides.
        """
        partition = self.partitions[partition_id]
        registry = get_registry()
        cache = getattr(self, "_partition_cache", None)
        cached = cache is not None and cache.admit(partition_id)
        injector = None if cached else get_injector()
        delay_s = 0.0
        if injector is not None:
            # Exhaustion surfaces as PartitionUnavailableError — kNN
            # strategies catch it and degrade, exact-match converts it to
            # a typed PartialResultError.
            load_seq = injector.next_seq("partition", partition_id)

            def sit_out_pauses(failed: int, backoff_s: float) -> None:
                if failed:
                    time.sleep(backoff_s)
                    if ledger is not None:
                        ledger.record_stage(
                            "query/load partition (retry)",
                            wall_s=backoff_s, tasks=failed,
                        )

            def unavailable(attempts: int, backoff_s: float):
                sit_out_pauses(attempts - 1, backoff_s)
                registry.counter(
                    "faults_partition_unavailable_total",
                    "Partition loads that exhausted their retry budget",
                ).inc()
                return PartitionUnavailableError(partition_id, attempts)

            failed, backoff_s, slow_s = injector.sit_out(
                lambda attempt: injector.partition_load_fault(
                    partition_id, load_seq, attempt
                ),
                ("partition", partition_id, load_seq),
                unavailable,
            )
            sit_out_pauses(failed, backoff_s)
            delay_s = backoff_s + slow_s
        io = 0.0
        if ledger is not None:
            if not cached:
                io = _COST_MODEL.disk_read_time(
                    max(partition.nbytes, self.block_nbytes())
                )
            ledger.record_stage(
                "query/load partition" + (" (cached)" if cached else ""),
                wall_s=io + delay_s, io_s=io, tasks=1,
            )
        registry.counter(
            "query_partitions_loaded_total",
            "Partition loads performed by queries (cached or not)",
        ).inc()
        if _KERNELS.enabled:
            _KERNELS.record(
                "partition_cache_hit" if cached else "partition_load",
                elements=partition.nbytes, seconds=delay_s,
            )
        with get_tracer().span("query/load partition") as span:
            span.set("partition_id", partition_id)
            span.set("cached", cached)
            span.set("simulated_s", io + delay_s)
        return partition

    def region_bounds(self, query_paa, partition_ids=None) -> dict[int, float]:
        """Partition id → :meth:`LocalPartition.region_bound`, one pass.

        Every bound a query needs — the ``pth`` cap's sibling list, the
        degraded cut, an exact search's partition order — comes from one
        :class:`~repro.core.region.RegionMatrix` over this index's
        partitions, built on first use and again after a synopsis grew
        or a rebalance swapped partitions.  Synopses are in-memory
        metadata (like the Bloom filters): no partition is loaded.
        """
        return self.region_matrix().bounds(
            query_paa, self.series_length, partition_ids
        )

    def region_matrix(self) -> RegionMatrix:
        """The current :class:`~repro.core.region.RegionMatrix` over this
        index's partitions (the ``pth`` cap prices through it)."""
        matrix = self._region_matrix = RegionMatrix.current(
            getattr(self, "_region_matrix", None),
            lambda: {pid: p.region for pid, p in self.partitions.items()},
        )
        return matrix

    def enable_cache(self, capacity_partitions: int):
        """Attach an LRU partition cache; returns it for inspection.

        Pass the number of partitions the cluster can hold hot.  Call
        :meth:`disable_cache` to return to cold-load accounting.
        """
        from .cache import PartitionCache

        self._partition_cache = PartitionCache(capacity_partitions)
        return self._partition_cache

    def disable_cache(self) -> None:
        self._partition_cache = None

    def cache_stats(self) -> dict | None:
        """Hit/miss/eviction statistics of the attached partition cache.

        ``None`` when no cache is enabled; see
        :meth:`repro.core.cache.PartitionCache.stats`.
        """
        cache = getattr(self, "_partition_cache", None)
        if cache is None:
            return None
        return cache.stats()

    def block_nbytes(self) -> int:
        """Nominal storage-block payload (capacity × record size)."""
        return self.config.g_max_size * (self.series_length * 8 + 16)

    # -- record-level maintenance -----------------------------------------------
    #
    # The paper's TARDIS is batch-oriented; these operations extend the
    # library to the record-level workflows downstream users expect.
    # Inserts route through Tardis-G exactly like the bulk shuffle did, so
    # every query invariant (routing consistency, Bloom no-false-negative)
    # is preserved.  The global statistics are NOT updated — after heavy
    # insertion skew, rebuild the index.

    def insert_series(
        self, series: np.ndarray, record_id: int | None = None
    ) -> int:
        """Insert one series into the built index; returns its record id.

        The series must be z-normalized and of the indexed length:
        :meth:`ingest` of a batch of one.
        """
        series = np.asarray(series, dtype=np.float64)
        if series.shape != (self.series_length,):
            raise ValueError(
                f"expected a series of length {self.series_length}, got "
                f"shape {series.shape}"
            )
        report = self.ingest(
            series[np.newaxis, :],
            record_ids=None if record_id is None else [record_id],
        )
        return report.record_ids[0]

    def prepare_batch(self, batch) -> RoutedBatch:
        """Validate, convert and route a ``(n, length)`` batch.

        Pure: nothing in the index is touched, so a batch that cannot
        land (bad length, partition not present in a shard's subset) is
        rejected whole, before any row of it is applied or made durable.
        """
        if isinstance(batch, RoutedBatch):
            return batch
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[np.newaxis, :]
        if batch.ndim != 2 or batch.shape[1] != self.series_length:
            raise ValueError(
                f"expected a (n, {self.series_length}) batch, got shape "
                f"{batch.shape}"
            )
        signatures, _paa, symbols = convert_batch(batch, self.config)
        partition_ids = self.global_index.route_many(signatures).tolist()
        for i, partition_id in enumerate(partition_ids):
            if partition_id not in self.partitions:
                raise ValueError(
                    f"row {i} routes to partition {partition_id}, which is "
                    f"not present in this index"
                )
        return RoutedBatch(batch, signatures, partition_ids, symbols)

    def route_batch(self, batch) -> list[int]:
        """Home partition of each row of a ``(n, length)`` batch
        (:meth:`prepare_batch`'s routing alone)."""
        return self.prepare_batch(batch).partition_ids

    def ingest(
        self, batch, record_ids=None, skip_existing: bool = False,
    ) -> IngestReport:
        """Batched append: route a ``(n, length)`` matrix through Tardis-G.

        The streaming-ingest workhorse behind the serving tier's
        ``write``/``write-batch`` ops: one vectorized signature pass for
        the whole batch (:meth:`prepare_batch` — a batch the caller
        already prepared is taken as is), then one block write per
        touched partition and per-record insertion into its Tardis-L
        (hot leaves split on L-MaxSize overflow inside ``insert_entry``;
        Bloom filters and region synopses update in place).
        Partition-cache residency for every touched partition is
        invalidated once at the end, which also notifies subscribed
        result caches.

        ``record_ids``, when given, must be unique and align with the
        batch (the WAL-replay and router paths pin ids); otherwise ids
        are assigned from the index's insert counter.

        ``skip_existing`` makes pinned-id appends idempotent: a row
        whose record id is live in its routed partition is acknowledged
        but not re-inserted.  Replica-fan-out writes need this — a
        retried delivery (or a threads-mode cluster where replicas share
        partition objects) must not double-insert.  Block rows are
        append-only, so "live" is read from the rows under the tree
        root: a deleted id is absent and is written again.

        Rows are grouped by partition (first-touch order, batch order
        within a group) and each group lands through one
        :meth:`LocalPartition.insert_records`; a partition only ever sees
        its own rows, so the state is the one row-by-row insertion in
        batch order leaves.
        """
        routed = self.prepare_batch(batch)
        n = len(routed.partition_ids)
        if record_ids is None:
            record_ids = [self._next_record_id() for _ in range(n)]
        else:
            record_ids = [int(rid) for rid in record_ids]
            if len(record_ids) != n:
                raise ValueError(
                    f"{len(record_ids)} record ids for {n} series"
                )
            for rid in record_ids:
                self._raise_id_floor(rid)
        report = IngestReport(
            record_ids=record_ids, partition_ids=list(routed.partition_ids)
        )
        groups: dict[int, list[int]] = {}
        live: dict[int, set] = {}
        for at, partition_id in enumerate(routed.partition_ids):
            if skip_existing:
                if partition_id not in live:
                    live[partition_id] = self.partitions[
                        partition_id
                    ].live_record_ids()
                if record_ids[at] in live[partition_id]:
                    continue
            groups.setdefault(partition_id, []).append(at)
        for partition_id, ats in groups.items():
            report.touched.append(partition_id)
            report.regions_added[partition_id] = self.partitions[
                partition_id
            ].insert_records(
                [routed.signatures[at] for at in ats],
                [record_ids[at] for at in ats],
                routed.values[ats],
                None if routed.symbols is None else routed.symbols[ats],
            )
            self.n_records += len(ats)
        cache = getattr(self, "_partition_cache", None)
        if cache is not None:
            for partition_id in report.touched:
                cache.invalidate(partition_id)
        return report

    def delete_series(self, series: np.ndarray, record_id: int) -> bool:
        """Delete one exact ``(series, record_id)`` pair; True if found.

        Bloom filters cannot forget, so the filter keeps the signature
        (harmless: a stale positive only costs one partition load).
        Counts along the Tardis-L path are decremented.
        """
        if not self.clustered:
            raise RuntimeError("delete needs a clustered index (raw compare)")
        series = np.asarray(series, dtype=np.float64)
        signature = convert_batch(series[np.newaxis, :], self.config)[0][0]
        partition = self.partitions[self.global_index.route(signature)]
        removed = partition.remove_record(record_id, series=series)
        if removed is None:
            return False
        self.n_records -= 1
        return True

    def rebalance(self, overflow_factor: float = 1.5):
        """Split partitions that overflowed after heavy insertion.

        Delegates to :func:`repro.core.rebalance.rebalance_index`; returns
        its :class:`RebalanceReport`.  The index stays fully consistent
        (:meth:`validate` holds afterwards).
        """
        from .rebalance import rebalance_index

        return rebalance_index(self, overflow_factor=overflow_factor)

    def _raise_id_floor(self, record_id: int) -> None:
        """Keep the auto-id counter above any explicitly pinned id.

        WAL replay and router-forwarded writes insert with pinned ids;
        without lifting the floor a later auto-assigned id could collide
        with one of them.
        """
        current = getattr(self, "_insert_counter", None)
        if current is not None and record_id > current:
            self._insert_counter = record_id

    def _next_record_id(self) -> int:
        rid = getattr(self, "_insert_counter", None)
        if rid is None:
            rid = max(
                (
                    int(partition.block.record_ids.max())
                    for partition in self.partitions.values()
                    if partition.block.n_rows
                ),
                default=-1,
            )
        rid += 1
        self._insert_counter = rid
        return rid

    def validate(self) -> None:
        """Deep self-check of every cross-structure invariant.

        Raises ``AssertionError`` naming the first violated invariant.
        Useful after :func:`~repro.core.persistence.load_index`, heavy
        maintenance, or as a debugging aid.  Checks: structural validity
        of every tree, record-count consistency at every level, routing
        consistency (each entry lives where Tardis-G routes it), Bloom
        containment, and region-synopsis coverage.
        """
        assert self.global_index.n_partitions == len(self.partitions), (
            "partition count mismatch between Tardis-G and local indices"
        )
        total = 0
        for pid, partition in self.partitions.items():
            partition.tree.validate()
            entries = partition.all_entries()
            assert len(entries) == partition.n_records, (
                f"partition {pid}: entry count != n_records"
            )
            assert partition.tree.root.count == len(entries), (
                f"partition {pid}: root count drift"
            )
            total += len(entries)
            routed = self.global_index.route_many(
                [sig for sig, _rid, _series in entries]
            )
            for (sig, rid, series), home in zip(entries, routed.tolist()):
                assert home == pid, (
                    f"record {rid} stored in partition {pid} but routes "
                    f"elsewhere"
                )
                assert partition.might_contain(sig), (
                    f"record {rid}: Bloom filter lost its signature"
                )
                assert partition.region_prefix(sig) in partition.region_prefixes, (
                    f"record {rid}: region synopsis does not cover it"
                )
                if self.clustered:
                    assert series is not None, (
                        f"record {rid}: clustered index missing raw series"
                    )
        assert total == self.n_records, "global record count drift"

    # -- reporting ----------------------------------------------------------------

    def global_index_nbytes(self) -> int:
        return self.global_index.estimated_nbytes()

    def local_index_nbytes(self) -> int:
        """Total local index size across partitions, excluding raw data."""
        return sum(p.index_nbytes() for p in self.partitions.values())

    def bloom_nbytes(self) -> int:
        return sum(p.bloom.nbytes for p in self.partitions.values())

    def partition_record_counts(self) -> dict[int, int]:
        return {pid: p.n_records for pid, p in self.partitions.items()}


def build_tardis_index(
    dataset: TimeSeriesDataset,
    config: TardisConfig | None = None,
    cluster: SimCluster | None = None,
    clustered: bool = True,
    with_bloom: bool = True,
    persist_in_memory: bool = True,
) -> TardisIndex:
    """Build a TARDIS index end to end.

    Parameters
    ----------
    dataset:
        Z-normalized time series (use ``dataset.z_normalized()`` first if
        unsure; TARDIS assumes normalized data like the paper).
    config:
        Framework parameters; defaults to the scaled Table II values.
    cluster:
        Simulated cluster to run on; a fresh one (with a fresh ledger) is
        created if omitted.
    clustered:
        Clustered (series stored in leaves) vs un-clustered local indices.
    with_bloom:
        Build the per-partition Bloom-filter index (Fig. 8 right branch).
    persist_in_memory:
        When False, models the Fig. 12 scenario where the shuffled
        intermediate data does not fit in memory and must be dumped to and
        re-read from disk before Bloom/local construction.
    """
    config = config or TardisConfig()
    cluster = cluster or SimCluster(n_workers=config.n_workers)
    ledger = cluster.ledger
    if dataset.length < config.word_length:
        raise ValueError(
            f"series length {dataset.length} is shorter than the word "
            f"length {config.word_length}"
        )
    _require_normalized(dataset)
    series_nbytes = dataset.values.itemsize * dataset.length
    storage = BlockStorage.of_rows(
        len(dataset), 8 + series_nbytes, config.g_max_size
    )
    signature_chars = config.cardinality_bits * chars_per_plane(
        config.word_length
    )
    record_nbytes = signature_chars + 8 + series_nbytes

    tracer = get_tracer()
    clock_at_start = ledger.clock_s
    logger.info(
        "building TARDIS index: %s (%d series x %d), clustered=%s",
        dataset.name, len(dataset), dataset.length, clustered,
    )
    with tracer.span(
        "build", dataset=dataset.name, n_records=len(dataset),
        clustered=clustered,
    ) as build_span:
        # ---- Global phase (Tardis-G) ----------------------------------------
        with tracer.span("build/global phase") as global_span:
            sampled_blocks = storage.sample_blocks(
                config.sampling_fraction, seed=config.seed
            )
            sample = cluster.read_blocks(
                sampled_blocks, label="global/sample+convert"
            )
            sig_pairs = sample.map_partitions(
                lambda rows: [
                    (sig, 1)
                    for sig in convert_batch(dataset.values[rows], config)[0]
                ],
                label="global/sample+convert",
            )
            reduced = sig_pairs.reduce_by_key(
                lambda a, b: a + b, label="global/aggregate"
            )
            frequency_pairs = reduced.collect(label="global/aggregate")
            sampled_count = sum(freq for _sig, freq in frequency_pairs)
            scale = (len(dataset) / sampled_count) if sampled_count else 1.0
            scale = max(1.0, scale)

            stats = cluster.run_on_driver(
                lambda: collect_layer_statistics(
                    dict(frequency_pairs), config, scale=scale
                ),
                label="global/node statistic",
            )
            global_index = cluster.run_on_driver(
                lambda: _skeleton_only(stats, config),
                label="global/build index tree",
            )
            cluster.run_on_driver(
                lambda: _assign(global_index, config),
                label="global/partition assignment",
            )
            global_span.set("sampled_records", sampled_count)
            global_span.set("n_partitions", global_index.n_partitions)
        logger.debug(
            "global phase done: %d sampled records, %d partitions",
            sampled_count, global_index.n_partitions,
        )

        # ---- Local phase (Tardis-L) -----------------------------------------
        with tracer.span("build/local phase") as local_span:
            data = cluster.read_storage(storage, label="local/read data")
            # From here a record is its row of the dataset's matrix: each
            # block converts with one convert_batch, whose signatures and
            # symbols land at its rows of two dataset-wide columns.
            signatures = np.empty(len(dataset), dtype=f"<U{signature_chars}")
            symbols = np.empty(
                (len(dataset), config.word_length), dtype=np.uint32
            )

            def convert(rows: list) -> list:
                signatures[rows], _paa, symbols[rows] = convert_batch(
                    dataset.values[rows], config
                )
                return rows

            converted = data.map_partitions(
                convert, label="local/convert data"
            )
            broadcast = cluster.broadcast(
                global_index, label="local/broadcast Tardis-G"
            )
            partitioner = broadcast.value
            n_partitions = max(1, partitioner.n_partitions)
            shuffled = converted.partition_by(
                lambda rows: partitioner.route_many(signatures[rows].tolist()),
                n_partitions=n_partitions,
                label="local/shuffle",
                # A record weighs its signature, its id and its series.
                nbytes_fn=lambda rows: np.full(len(rows), record_nbytes),
            )
            if not persist_in_memory:
                # Intermediate data spills: dump shuffled partitions, read
                # them back.
                spilled_bytes = record_nbytes * len(dataset)
                cluster.charge_disk_write(spilled_bytes, label="local/spill write")
                cluster.charge_disk_read(spilled_bytes, label="local/spill read")
            source = ColumnarBlock(
                dataset.record_ids, dataset.values, signatures, symbols
            )

            def build_one(index: int, rows: list) -> tuple[list, float]:
                # The partition is the task OUTPUT (not a closure side
                # effect) so results merge in task order.
                partition = build_partition(
                    index, source, rows, config, clustered=clustered,
                    with_bloom=with_bloom,
                )
                return [partition], 0.0

            built = cluster._run_stage(
                "local/build index", shuffled.partitions, build_one
            )
            partitions: dict[int, LocalPartition] = {
                index: out[0] for index, out in enumerate(built)
            }
            if with_bloom:
                bloom_bytes = sum(p.bloom.nbytes for p in partitions.values())
                cluster.charge_disk_write(
                    bloom_bytes, label="local/dump bloom index"
                )
            local_span.set("n_partitions", len(partitions))
        build_span.set("n_partitions", len(partitions))
        build_span.set("simulated_s", ledger.clock_s - clock_at_start)

    registry = get_registry()
    registry.counter("index_builds_total", "TARDIS indices built").inc()
    registry.histogram(
        "build_simulated_seconds", "Simulated end-to-end construction time"
    ).observe(ledger.clock_s - clock_at_start)
    logger.info(
        "built index: %d partitions, simulated %.2fs",
        len(partitions), ledger.clock_s - clock_at_start,
    )
    return TardisIndex(
        config=config,
        global_index=global_index,
        partitions=partitions,
        dataset_name=dataset.name,
        n_records=len(dataset),
        series_length=dataset.length,
        clustered=clustered,
        construction_ledger=ledger,
    )


def _require_normalized(dataset: TimeSeriesDataset) -> None:
    """Reject clearly un-normalized data with an actionable message.

    SAX breakpoints assume z-normalized series (paper §VI-A: "each dataset
    is z-normalized before being indexed"); indexing raw-valued data packs
    everything into the outermost stripes and silently destroys accuracy.
    Constant series legitimately normalize to all-zeros, so only the mean
    is checked.
    """
    sample = dataset.values[: min(len(dataset), 256)]
    means = sample.mean(axis=1)
    if np.abs(means).max() > 1e-3:
        raise ValueError(
            "dataset does not look z-normalized (per-series means up to "
            f"{np.abs(means).max():.3g}); call dataset.z_normalized() first"
        )


def _skeleton_only(stats, config: TardisConfig) -> TardisGlobalIndex:
    """Skeleton building without partition assignment (separate stages)."""
    index = TardisGlobalIndex(config)
    index.tree.set_root_count(stats.total)
    for layer in sorted(stats.layers):
        for signature, frequency in stats.nodes_in_layer(layer).items():
            index.tree.insert_stat_node(signature, frequency)
    return index


def _assign(index: TardisGlobalIndex, config: TardisConfig) -> None:
    from .partitioning import assign_partitions

    index.n_partitions = assign_partitions(index.tree, config.partition_capacity)
