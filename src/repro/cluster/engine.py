"""In-process MapReduce/Spark-like execution engine with cost accounting.

The engine is the stand-in for the paper's Apache Spark deployment (see
DESIGN.md §2).  It executes real Python functions over partitioned data
while a :class:`~repro.cluster.costmodel.SimulationLedger` tracks what the
same job would cost on a cluster: measured CPU per task, analytic disk and
network charges, and max-over-workers stage latency.

Typical usage::

    cluster = SimCluster(n_workers=8)
    data = cluster.read_storage(storage, label="read data")
    pairs = data.map_partitions(to_signature_pairs, label="convert")
    stats = pairs.reduce_by_key(lambda a, b: a + b, label="aggregate")
    print(cluster.ledger.breakdown())
"""

from __future__ import annotations

import logging
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..faults.injector import get_injector
from ..telemetry.metrics import get_registry
from ..telemetry.spans import get_tracer
from .costmodel import CostModel, SimulationLedger, estimate_bytes
from .storage import Block, BlockStorage

__all__ = ["SimCluster", "PartitionedData", "Broadcast", "TaskFailedError"]

logger = logging.getLogger(__name__)


class TaskFailedError(RuntimeError):
    """A task exhausted the fault plan's retry budget
    (:attr:`repro.faults.RetryPolicy.max_attempts`)."""


@dataclass
class Broadcast:
    """A read-only value shipped once to every worker (Spark broadcast)."""

    value: object


class PartitionedData:
    """A distributed collection: one record list per partition.

    Partition ``i`` is pinned to worker ``i % n_workers``.  All
    transformations are *eager* (no lazy DAG — determinism and cost
    attribution are simpler, and nothing in the paper depends on laziness).
    """

    def __init__(self, cluster: "SimCluster", partitions: list[list]):
        self._cluster = cluster
        self.partitions = partitions

    # -- inspection ----------------------------------------------------------

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def collect(self, label: str = "collect") -> list:
        """Gather all records to the driver (charges network)."""
        return self._cluster._collect(self, label)

    # -- transformations -------------------------------------------------------

    def map_partitions(self, fn: Callable, label: str) -> "PartitionedData":
        """Apply ``fn(list) -> list`` to each whole partition."""
        return self._cluster._map_partitions(self, fn, label)

    def reduce_by_key(self, combine: Callable, label: str) -> "PartitionedData":
        """Group ``(key, value)`` records by key and fold values.

        Runs a map-side combine, shuffles by key hash, then merges — the
        classic MapReduce aggregation used by Tardis-G statistics
        collection.
        """
        return self._cluster._reduce_by_key(self, combine, label)

    def partition_by(
        self,
        key_fn: Callable,
        n_partitions: int,
        label: str,
        nbytes_fn: Callable | None = None,
    ) -> "PartitionedData":
        """Shuffle records so record ``j`` of a partition lands in
        partition ``key_fn(records)[j]``.

        ``key_fn`` takes a whole partition's record list and returns one
        destination per record (an integer array or sequence), so a
        partitioner routes a partition per call.  ``nbytes_fn`` takes a
        list of the records that leave their node and returns what each
        weighs on the wire; the default is
        :func:`~repro.cluster.costmodel.estimate_bytes` of each.
        """
        return self._cluster._shuffle(
            self, key_fn, n_partitions, label, nbytes_fn
        )


class SimCluster:
    """A simulated cluster: workers, a ledger, and the execution engine."""

    def __init__(
        self,
        n_workers: int = 8,
        cost_model: CostModel | None = None,
        ledger: SimulationLedger | None = None,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        self.cost_model = cost_model or CostModel()
        self.ledger = ledger or SimulationLedger()

    # -- data ingestion --------------------------------------------------------

    def parallelize(
        self, records: Sequence, n_partitions: int | None = None
    ) -> PartitionedData:
        """Distribute in-memory records round-robin (no I/O charge)."""
        n_partitions = n_partitions or self.n_workers
        partitions: list[list] = [[] for _ in range(n_partitions)]
        for i, record in enumerate(records):
            partitions[i % n_partitions].append(record)
        return PartitionedData(self, partitions)

    def read_storage(self, storage: BlockStorage, label: str) -> PartitionedData:
        """Load every block from storage, one partition per block."""
        return self.read_blocks(storage.blocks, label)

    def read_blocks(self, blocks: Iterable[Block], label: str) -> PartitionedData:
        """Load specific blocks (e.g. a block-level sample) from disk."""
        with self._stage_span(label) as span:
            blocks = list(blocks)
            worker_io = [0.0] * self.n_workers
            partitions = []
            total_io = 0.0
            for i, block in enumerate(blocks):
                # read_records consults the fault injector: failed read
                # attempts re-charge a full block read, stragglers add
                # wall-clock delay on the owning worker.
                records, extra_reads, delay_s = block.read_records()
                io_time = self.cost_model.disk_read_time(block.nbytes) * (
                    1 + extra_reads
                )
                worker_io[i % self.n_workers] += (
                    io_time + delay_s + self.cost_model.task_overhead_s
                )
                total_io += io_time
                partitions.append(records)
            wall = max(worker_io, default=0.0)
            self.ledger.record_stage(
                label, wall_s=wall, io_s=total_io, tasks=len(blocks)
            )
            span.set("tasks", len(blocks))
            span.set("simulated_s", wall)
        return PartitionedData(self, partitions)

    def broadcast(self, value: object, label: str = "broadcast") -> Broadcast:
        """Ship a value to all workers once (charges one network transfer)."""
        with self._stage_span(label) as span:
            network = self.cost_model.network_time(estimate_bytes(value))
            self.ledger.record_stage(
                label, wall_s=network, network_s=network, tasks=1
            )
            span.set("simulated_s", network)
        return Broadcast(value)

    # -- driver-side work --------------------------------------------------------

    def run_on_driver(self, fn: Callable[[], object], label: str) -> object:
        """Execute master-node work (e.g. skeleton building), timing it."""
        with self._stage_span(label) as span:
            start = time.perf_counter()
            result = fn()
            cpu = (time.perf_counter() - start) * self.cost_model.cpu_scale
            self.ledger.record_stage(label, wall_s=cpu, cpu_s=cpu, tasks=1)
            span.set("simulated_s", cpu)
        return result

    def charge_disk_write(self, nbytes: int, label: str) -> None:
        """Account an explicit spill/persist write (e.g. dumping indices)."""
        with self._stage_span(label) as span:
            io = self.cost_model.disk_write_time(nbytes)
            self.ledger.record_stage(label, wall_s=io / self.n_workers, io_s=io)
            span.set("nbytes", nbytes)
            span.set("simulated_s", io / self.n_workers)

    def charge_disk_read(self, nbytes: int, label: str) -> None:
        """Account an explicit re-read of spilled data."""
        with self._stage_span(label) as span:
            io = self.cost_model.disk_read_time(nbytes)
            self.ledger.record_stage(label, wall_s=io / self.n_workers, io_s=io)
            span.set("nbytes", nbytes)
            span.set("simulated_s", io / self.n_workers)

    # -- internal execution ------------------------------------------------------

    def _stage_span(self, label: str):
        """Open the trace span + counters shared by every engine stage."""
        get_registry().counter(
            "engine_stages_total", "Engine stages executed"
        ).inc()
        return get_tracer().span(f"stage/{label}")

    def _worker_of(self, partition_index: int) -> int:
        return partition_index % self.n_workers

    def _node_of(self, worker: int) -> int:
        return worker % max(1, self.cost_model.n_nodes)

    def _run_stage(
        self,
        label: str,
        partitions: list[list],
        task: Callable[[int, list], tuple[list, float]],
    ) -> list[list]:
        """Run one task per partition; returns outputs and records costs.

        ``task(index, records)`` returns ``(output_records, io_seconds)``;
        its CPU time is measured around the call.  Tasks run inline, in
        task order; the per-task charges fold into the per-worker latency
        model, and the first (lowest-index) failing task raises.
        """
        registry = get_registry()
        inj = get_injector()
        with self._stage_span(label) as span:
            cpu_scale = self.cost_model.cpu_scale
            clock = time.perf_counter
            # Stage sequence number: drawn once per stage, so fault sites
            # depend on the stage, not on how its tasks ran.
            stage_seq = inj.next_seq("stage", label) if inj is not None else 0

            def run_task(i: int, records: list):
                # Spark-style retries: a crashed attempt never executes
                # the task (the idempotent re-run's output stands) and
                # costs a backoff pause; a straggler runs but adds its
                # delay to the worker's clock.
                failed, delay = 0, 0.0
                if inj is not None:
                    failed, backoff_s, slow_s = inj.sit_out(
                        lambda attempt: inj.task_fault(
                            label, stage_seq, i, attempt
                        ),
                        ("stage", label, stage_seq, i),
                        lambda attempt, _pauses: TaskFailedError(
                            f"stage {label!r} task {i} crashed "
                            f"{attempt} attempts (injected)"
                        ),
                    )
                    delay = backoff_s + slow_s
                start = clock()
                out, io = task(i, records)
                cpu = (clock() - start) * cpu_scale
                return out, cpu, io, failed + 1, delay

            try:
                results = [
                    run_task(i, part) for i, part in enumerate(partitions)
                ]
            except TaskFailedError:
                registry.counter(
                    "engine_task_failures_total",
                    "Tasks that exhausted their retry budget",
                ).inc()
                raise
            worker_time = [0.0] * self.n_workers
            outputs: list[list] = []
            total_cpu = 0.0
            total_io = 0.0
            retries = 0
            for i, (out, cpu, io, n_runs, delay) in enumerate(results):
                outputs.append(out)
                total_cpu += cpu
                total_io += io
                retries += n_runs - 1
                # Per-attempt re-routing: each retry lands on the next
                # worker in the ring rather than hammering the one that
                # just failed.
                share = (cpu + io + delay) / n_runs
                for run in range(n_runs):
                    worker_time[self._worker_of(i + run)] += (
                        share + self.cost_model.task_overhead_s
                    )
            wall = max(worker_time, default=0.0)
            self.ledger.record_stage(
                label, wall_s=wall, cpu_s=total_cpu, io_s=total_io,
                tasks=len(partitions) + retries,
            )
            registry.counter(
                "engine_tasks_total", "Task attempts run by the engine"
            ).inc(len(partitions) + retries)
            if retries:
                registry.counter(
                    "engine_task_retries_total",
                    "Task attempts that failed and were retried",
                ).inc(retries)
                logger.debug("stage %r: %d task retries", label, retries)
            span.set("tasks", len(partitions))
            span.set("retries", retries)
            span.set("simulated_s", wall)
        logger.debug(
            "stage %r: %d tasks, simulated %.4fs", label, len(partitions), wall
        )
        return outputs

    def _map_partitions(
        self, data: PartitionedData, fn: Callable, label: str
    ) -> PartitionedData:
        outputs = self._run_stage(
            label, data.partitions, lambda i, records: (fn(records), 0.0)
        )
        return PartitionedData(self, outputs)

    def _shuffle(
        self,
        data: PartitionedData,
        key_fn: Callable,
        n_partitions: int,
        label: str,
        nbytes_fn: Callable | None = None,
    ) -> PartitionedData:
        """Repartition records; cross-worker bytes are charged to network."""
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        with self._stage_span(label) as span:
            result = self._shuffle_inner(
                data, key_fn, n_partitions, label, span,
                nbytes_fn or _record_nbytes,
            )
        return result

    def _shuffle_inner(
        self,
        data: PartitionedData,
        key_fn: Callable,
        n_partitions: int,
        label: str,
        span,
        nbytes_fn: Callable,
    ) -> PartitionedData:
        cpu_scale = self.cost_model.cpu_scale
        clock = time.perf_counter
        dest_worker = np.arange(n_partitions) % self.n_workers
        dest_node = dest_worker % max(1, self.cost_model.n_nodes)

        def route_task(i: int, records: list):
            """Map side of the shuffle for one source partition: a stable
            scatter of its records by destination, and the bytes each
            worker pulls from another node."""
            start = clock()
            dests = np.asarray(key_fn(records), dtype=np.int64).reshape(-1)
            if len(dests) != len(records):
                raise ValueError(
                    f"partitioner returned {len(dests)} destinations for "
                    f"{len(records)} records"
                )
            bad = (dests < 0) | (dests >= n_partitions)
            if bad.any():
                raise ValueError(
                    f"partitioner returned {int(dests[bad][0])}, outside "
                    f"[0, {n_partitions})"
                )
            ordered = [
                records[j] for j in np.argsort(dests, kind="stable").tolist()
            ]
            counts = np.bincount(dests, minlength=n_partitions)
            present = np.flatnonzero(counts)
            buckets = {
                dest: ordered[end - count:end]
                for dest, end, count in zip(
                    present.tolist(), np.cumsum(counts)[present].tolist(),
                    counts[present].tolist(),
                )
            }
            src_node = self._node_of(self._worker_of(i))
            remote = np.flatnonzero(dest_node[dests] != src_node)
            incoming = np.zeros(self.n_workers, dtype=np.int64)
            if remote.size:
                sizes = nbytes_fn([records[j] for j in remote.tolist()])
                np.add.at(
                    incoming, dest_worker[dests[remote]],
                    np.asarray(sizes, dtype=np.int64),
                )
            cpu = (clock() - start) * cpu_scale
            return buckets, incoming.tolist(), cpu

        routed = [
            route_task(i, records) for i, records in enumerate(data.partitions)
        ]
        # Merge in source-partition order: per-destination record order is
        # then identical to the sequential record-at-a-time shuffle.
        new_partitions: list[list] = [[] for _ in range(n_partitions)]
        worker_time = [0.0] * self.n_workers
        total_cpu = 0.0
        total_network = 0.0
        incoming_bytes = [0] * self.n_workers
        for i, (buckets, incoming, cpu) in enumerate(routed):
            for dest, records in buckets.items():
                new_partitions[dest].extend(records)
            for worker, nbytes in enumerate(incoming):
                incoming_bytes[worker] += nbytes
            total_cpu += cpu
            worker_time[self._worker_of(i)] += (
                cpu + self.cost_model.task_overhead_s
            )
        map_wall = max(worker_time, default=0.0)
        # Reduce side: each worker pulls its remote bytes in parallel.
        pull_times = [self.cost_model.network_time(b) for b in incoming_bytes]
        total_network = sum(pull_times)
        wall = map_wall + max(pull_times, default=0.0)
        self.ledger.record_stage(
            label, wall_s=wall, cpu_s=total_cpu, network_s=total_network,
            tasks=len(data.partitions),
        )
        span.set("tasks", len(data.partitions))
        span.set("simulated_s", wall)
        return PartitionedData(self, new_partitions)

    def _reduce_by_key(
        self, data: PartitionedData, combine: Callable, label: str
    ) -> PartitionedData:
        def local_combine(records: list) -> list:
            merged: dict = {}
            for key, value in records:
                if key in merged:
                    merged[key] = combine(merged[key], value)
                else:
                    merged[key] = value
            return list(merged.items())

        combined = self._map_partitions(data, local_combine, f"{label}/combine")
        n_out = max(1, min(combined.n_partitions, self.n_workers))
        shuffled = self._shuffle(
            combined,
            lambda records: [_stable_hash(key) % n_out for key, _ in records],
            n_out,
            f"{label}/shuffle",
        )
        return self._map_partitions(shuffled, local_combine, f"{label}/merge")

    def _collect(self, data: PartitionedData, label: str) -> list:
        with self._stage_span(label) as span:
            nbytes = sum(estimate_bytes(p) for p in data.partitions)
            network = self.cost_model.network_time(nbytes)
            self.ledger.record_stage(label, wall_s=network, network_s=network,
                                     tasks=data.n_partitions)
            span.set("tasks", data.n_partitions)
            span.set("simulated_s", network)
        return [record for partition in data.partitions for record in partition]


def _record_nbytes(records: list) -> list:
    """:func:`estimate_bytes` of each record (the default shuffle sizer)."""
    return [estimate_bytes(record) for record in records]


def _stable_hash(key: object) -> int:
    """Process-independent hash for shuffle keys.

    Python's built-in ``hash`` is salted per process for strings, which
    would make partition layouts — and therefore partition *ids* and every
    downstream random selection — differ between runs of the same program.
    CRC32 over a canonical byte form keeps the whole pipeline reproducible.
    """
    if isinstance(key, bytes):
        data = key
    elif isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, int):
        return key & 0x7FFFFFFF
    else:
        data = repr(key).encode("utf-8")
    return zlib.crc32(data) & 0x7FFFFFFF
