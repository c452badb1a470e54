"""Online rebalancing: split overflowing partitions after heavy insertion.

The paper's TARDIS is batch-built; record-level inserts (our maintenance
extension) route into the existing partitions, so a hot region eventually
overflows its block capacity and every query touching it pays oversized
loads.  Rebalancing restores the invariant the original FFD packing
established — partitions near (at most ``overflow_factor``×) capacity —
without rebuilding the index:

1. find partitions holding more than ``overflow_factor × capacity``
   records;
2. group each one's records by the Tardis-G leaf that routes them
   (fallback-routed records group with the leaf the router actually
   lands on, so routing consistency is preserved by construction);
3. if the partition spans several leaves, re-pack those leaves by their
   *actual* record counts with First-Fit-Decreasing; a single oversized
   leaf is first split one bit plane deeper (new Tardis-G children with
   true counts) and then packed;
4. rebuild the affected local partitions (Tardis-L + Bloom + synopsis)
   and resynchronize every ancestor id list.

The operation is local: partitions that were not overflowing keep their
ids, contents and Bloom filters untouched.

**Plan/apply split.**  The work is factored into a *pure* planning pass
(:func:`plan_rebalance` — snapshots entries, decides refinements and FFD
groups, pre-builds the replacement partitions; the index is never
touched) and a fast mutation pass (:func:`apply_rebalance` — installs
the new Tardis-G children, swaps the partitions dict, resynchronizes id
lists and invalidates caches).  :func:`rebalance_index` composes the two
and is deterministic given the index state — the property WAL replay
(:mod:`repro.core.wal`) leans on to reproduce a committed split exactly.

**Online cycles.**  :class:`OnlineRebalancer` runs the same engine from
a background thread as a snapshot→repack→swap→invalidate cycle: the
snapshot and swap run under a caller-supplied *gate* (the serving tier
passes its window lock, so reads and writes never observe a half-swapped
index), while the expensive repack runs outside it — reads proceed
against the old layout for the whole build.  The partition's
``(n_records, tree.version)`` fingerprint is checked at swap time; a
write that slipped in aborts the cycle, which retries on the next
trigger.  A cycle splits **one** partition — the first overflowing one
that can be split — and the background loop runs cycles back to back
while they commit, so the window a write can slip into is one
partition's build and a stale fingerprint throws away one build.  (One
all-or-nothing cycle over every overflowing partition does not survive
a write stream: the more partitions overflow, the longer the build and
the surer one of them is written to before the swap, and each abort
discards every build.)  Cycles are bracketed in the write-ahead log so
a crash mid-split replays to the pre-split state and a crash after commit
replays the split itself (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field

from .config import TardisConfig
from .global_index import TardisGlobalIndex
from .local_index import build_local_partition
from .partitioning import _synchronize_id_lists, first_fit_decreasing
from .region import regions_changed
from .sigtree import SigTree, SigTreeNode

__all__ = [
    "OnlineRebalancer",
    "RebalanceCycle",
    "RebalancePlan",
    "RebalanceReport",
    "StaleRebalancePlan",
    "apply_rebalance",
    "plan_rebalance",
    "rebalance_index",
]

logger = logging.getLogger(__name__)


@dataclass
class RebalanceReport:
    """What a rebalance pass did."""

    partitions_examined: int = 0
    partitions_split: int = 0
    partitions_created: int = 0
    records_moved: int = 0
    leaves_refined: int = 0
    split_partition_ids: list = field(default_factory=list)
    created_partition_ids: list = field(default_factory=list)


class StaleRebalancePlan(RuntimeError):
    """A partition changed between snapshot and swap; re-plan and retry."""


def _node_at(
    tree: SigTree, signature: str, created: dict | None = None
) -> SigTreeNode:
    """The node whose signature is ``signature``.

    Fast path is exact-prefix descent, but it is not complete: streamed
    records route through Tardis-G's first-mismatch *fallback* walk, so a
    refinement child's signature need not extend its parent's path (a
    leaf ``00`` can parent a ``03``-prefixed child).  ``created`` maps
    signatures attached earlier in the same apply; anything else is
    found by exhaustive traversal (the tree is small and swaps are
    rare).
    """
    if created is not None:
        node = created.get(signature)
        if node is not None:
            return node
    node = tree.root
    try:
        while node.signature != signature:
            node = node.children[tree._prefix(signature, node.layer + 1)]
        return node
    except KeyError:
        pass
    for node in tree.iter_nodes():
        if node.signature == signature:
            return node
    raise KeyError(f"no Tardis-G node with signature {signature!r}")


@dataclass
class _Refinement:
    """One Tardis-G leaf split one bit plane deeper (plan stage)."""

    parent_signature: str
    #: ``(child_signature, count)`` stat nodes to create under the parent.
    children: list


@dataclass
class _PartitionSplit:
    """Everything needed to swap one overflowing partition."""

    pid: int
    #: ``(n_records, tree.version)`` at snapshot time; checked at swap.
    fingerprint: tuple
    refinements: list
    #: ``(new_pid, [(leaf_signature, count), ...])`` per FFD group; the
    #: first group keeps the original pid.
    assignments: list
    #: new_pid -> entries (tuples) that partition will hold.
    group_entries: dict
    with_bloom: bool
    records_moved: int
    #: new_pid -> prebuilt LocalPartition (filled by ``build``).
    built: dict = field(default_factory=dict)


@dataclass
class RebalancePlan:
    """A pure description of a rebalance; apply with :func:`apply_rebalance`."""

    overflow_factor: float
    partitions_examined: int
    leaves_refined: int
    splits: list
    built: bool = False

    @property
    def partition_ids(self) -> list:
        """The overflowing partitions this plan restructures."""
        return [split.pid for split in self.splits]

    def build(self, config: TardisConfig, clustered: bool) -> "RebalancePlan":
        """Pre-build the replacement partitions (the expensive phase).

        Pure: constructs fresh :class:`LocalPartition` objects from the
        snapshotted entries without touching the live index, so an online
        cycle runs it outside the swap gate while reads continue.
        """
        for split in self.splits:
            for new_pid, _leaves in split.assignments:
                split.built[new_pid] = build_local_partition(
                    new_pid, split.group_entries[new_pid], config,
                    clustered=clustered,
                    with_bloom=split.with_bloom,
                )
        self.built = True
        return self


def plan_rebalance(
    index,
    overflow_factor: float = 1.5,
    partition_ids=None,
    build: bool = True,
) -> RebalancePlan | None:
    """Snapshot + decide: which partitions split, into what.

    Returns ``None`` when nothing overflows (or nothing can be split).
    ``partition_ids`` restricts the overflow scan — WAL replay passes the
    ids recorded at begin time so a replayed cycle splits exactly what
    the live cycle split, regardless of what else grew in between.  With
    ``build=False`` the expensive partition construction is deferred to
    :meth:`RebalancePlan.build` (the online cycle's out-of-gate phase).
    """
    if overflow_factor < 1.0:
        raise ValueError("overflow_factor must be >= 1.0")
    config: TardisConfig = index.config
    capacity = config.partition_capacity
    threshold = int(capacity * overflow_factor)
    global_index: TardisGlobalIndex = index.global_index

    candidates = (
        index.partitions.keys() if partition_ids is None
        else [pid for pid in partition_ids if pid in index.partitions]
    )
    overflowing = [
        pid for pid in candidates
        if index.partitions[pid].n_records > threshold
    ]
    plan = RebalancePlan(
        overflow_factor=overflow_factor,
        partitions_examined=len(index.partitions),
        leaves_refined=0,
        splits=[],
    )
    if not overflowing:
        return None

    next_pid = max(index.partitions) + 1
    for pid in overflowing:
        partition = index.partitions[pid]
        fingerprint = (partition.n_records, partition.tree.version)
        entries = partition.all_entries()
        # Group records by the leaf that routes them.  Keys are the leaf
        # signatures (stable across the pure pass); insertion order is
        # first-touch over the entry scan, which fixes the FFD item
        # order and keeps the plan deterministic.
        by_leaf: dict[str, list] = {}
        leaves = global_index.routing_leaves([entry[0] for entry in entries])
        for entry, leaf in zip(entries, leaves):
            by_leaf.setdefault(leaf.signature, []).append(entry)

        refinements: list = []
        # Refine as deep as needed: near-duplicate regions may share
        # prefixes for several planes before separating; records whose
        # *full* signatures coincide can never be separated (they stay an
        # overflow leaf, like the paper's max-depth leaves).
        tree = global_index.tree
        while len(by_leaf) == 1:
            (leaf_signature, leaf_entries), = by_leaf.items()
            layer = len(leaf_signature) // tree.per_plane
            if layer >= tree.max_bits:
                break  # at max depth: cannot split further
            grouped: dict[str, list] = {}
            for entry in leaf_entries:
                prefix = tree._prefix(entry[0], layer + 1)
                grouped.setdefault(prefix, []).append(entry)
            refinements.append(_Refinement(
                parent_signature=leaf_signature,
                children=[(sig, len(sub)) for sig, sub in grouped.items()],
            ))
            plan.leaves_refined += 1
            by_leaf = grouped
        if len(by_leaf) == 1 and not refinements:
            continue  # unsplittable and untouched

        # Re-pack the (leaf -> actual count) groups with FFD.
        items = [(sig, len(bucket)) for sig, bucket in by_leaf.items()]
        groups = first_fit_decreasing(items, capacity)
        if len(groups) <= 1 and not refinements:
            continue  # nothing to gain, nothing was restructured

        assignments: list = []
        group_entries: dict[int, list] = {}
        records_moved = 0
        for group_index, group in enumerate(groups):
            new_pid = pid if group_index == 0 else next_pid
            if group_index > 0:
                next_pid += 1
            leaves = [(sig, len(by_leaf[sig])) for sig in group]
            collected: list = []
            for sig in group:
                collected.extend(by_leaf[sig])
            if group_index > 0:
                records_moved += len(collected)
            assignments.append((new_pid, leaves))
            group_entries[new_pid] = collected
        plan.splits.append(_PartitionSplit(
            pid=pid,
            fingerprint=fingerprint,
            refinements=refinements,
            assignments=assignments,
            group_entries=group_entries,
            with_bloom=partition.bloom.n_items > 0 or not entries,
            records_moved=records_moved,
        ))

    if not plan.splits:
        return None
    if build:
        plan.build(config, index.clustered)
    return plan


def apply_rebalance(index, plan: RebalancePlan) -> RebalanceReport:
    """Swap a built plan into the live index (the fast mutation phase).

    Verifies every snapshotted fingerprint first and raises
    :class:`StaleRebalancePlan` if a partition changed since planning —
    the index is untouched in that case.  On success the index is fully
    consistent (``index.validate()`` holds).
    """
    if not plan.built:
        raise RuntimeError("plan not built; call plan.build(...) first")
    for split in plan.splits:
        partition = index.partitions.get(split.pid)
        current = (
            None if partition is None
            else (partition.n_records, partition.tree.version)
        )
        if current != split.fingerprint:
            raise StaleRebalancePlan(
                f"partition {split.pid} changed since snapshot "
                f"({split.fingerprint} -> {current})"
            )

    report = RebalanceReport(
        partitions_examined=plan.partitions_examined,
        leaves_refined=plan.leaves_refined,
    )
    global_index: TardisGlobalIndex = index.global_index
    tree = global_index.tree
    cache = getattr(index, "_partition_cache", None)
    created: dict[str, SigTreeNode] = {}
    for split in plan.splits:
        for refinement in split.refinements:
            parent = _node_at(tree, refinement.parent_signature, created)
            for child_signature, count in refinement.children:
                child = SigTreeNode(
                    signature=child_signature,
                    layer=parent.layer + 1,
                    parent=parent,
                )
                child.count = count
                parent.children[child_signature] = child
                created[child_signature] = child
            parent.partition_id = None  # now internal
        if len(split.assignments) > 1:
            report.partitions_split += 1
            report.split_partition_ids.append(split.pid)
        report.records_moved += split.records_moved
        for group_index, (new_pid, leaves) in enumerate(split.assignments):
            if group_index > 0:
                report.partitions_created += 1
                report.created_partition_ids.append(new_pid)
            for leaf_signature, count in leaves:
                leaf = _node_at(tree, leaf_signature, created)
                leaf.partition_id = new_pid
                leaf.count = count
            index.partitions[new_pid] = split.built[new_pid]
            if cache is not None:
                cache.invalidate(new_pid)

    # The swapped-in partitions carry new synopses.
    regions_changed()

    # Also after a refinement that split no partition: the resync bumps
    # the tree's version, which retires the routing table.
    for node in tree.iter_nodes():
        node.partition_ids.clear()
    _synchronize_id_lists(tree)
    global_index.n_partitions = len(index.partitions)
    if report.partitions_split:
        logger.info(
            "rebalance: split %d partition(s), created %d, moved %d records",
            report.partitions_split, report.partitions_created,
            report.records_moved,
        )
    return report


def rebalance_index(
    index, overflow_factor: float = 1.5, partition_ids=None
) -> RebalanceReport:
    """Split partitions holding more than ``overflow_factor × capacity``.

    Returns a :class:`RebalanceReport`; the index is modified in place and
    remains fully consistent (``index.validate()`` holds afterwards).
    Deterministic given the index state — WAL replay re-runs it at each
    commit marker with the recorded ``partition_ids`` to reproduce a
    committed split bit-for-bit.
    """
    plan = plan_rebalance(
        index, overflow_factor=overflow_factor, partition_ids=partition_ids
    )
    if plan is None:
        return RebalanceReport(partitions_examined=len(index.partitions))
    return apply_rebalance(index, plan)


#: Why an online cycle can abort; each has its own
#: ``rebalance_cycles_aborted_<kind>_total`` counter (spaces as ``_``).
ABORT_KINDS = ("stale", "injected", "nothing to split")


@dataclass
class RebalanceCycle:
    """Outcome of one online snapshot→repack→swap→invalidate cycle."""

    cycle: int
    #: Why the cycle stopped short of a commit (``None``: it did not).
    aborted: str | None = None
    #: The :data:`ABORT_KINDS` entry ``aborted`` starts with.
    abort_kind: str | None = None
    report: RebalanceReport | None = None
    #: Seconds the swap gate was held (the only reads-visible pause).
    pause_s: float = 0.0
    plan_s: float = 0.0
    build_s: float = 0.0


class OnlineRebalancer:
    """Background re-packer: watch watermarks, split without blocking reads.

    Parameters
    ----------
    index:
        The live :class:`~repro.core.builder.TardisIndex`.
    overflow_factor:
        Watermark: partitions above ``overflow_factor × capacity``
        records trigger a cycle.
    gate:
        ``gate(fn) -> fn()`` — run ``fn`` mutually excluded with reads
        and writes.  The serving tier passes its window lock; standalone
        use defaults to a private lock (single-threaded callers).
    wal:
        Optional :class:`~repro.core.wal.WriteAheadLog`; cycles are
        bracketed with begin/commit (or abort) markers for replay.
    on_applied:
        ``on_applied(report)`` called after a successful swap, outside
        the gate — the serving tier invalidates its result cache here.
    interval_s:
        Background polling period of :meth:`start`'s thread.
    """

    def __init__(
        self,
        index,
        *,
        overflow_factor: float = 1.5,
        interval_s: float = 0.25,
        gate=None,
        wal=None,
        on_applied=None,
        journal=None,
    ):
        if overflow_factor < 1.0:
            raise ValueError("overflow_factor must be >= 1.0")
        self.index = index
        self.overflow_factor = overflow_factor
        self.interval_s = interval_s
        self.wal = wal
        self.on_applied = on_applied
        self.journal = journal
        self._default_gate_lock = threading.Lock()
        self._gate = gate if gate is not None else self._default_gate
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._cycle_seq = 0
        self._stats_lock = threading.Lock()
        self.cycles_total = 0
        self.cycles_aborted = 0
        self.partitions_split = 0
        self.partitions_created = 0
        self.records_moved = 0
        self.last_pause_s = 0.0
        self.max_pause_s = 0.0
        self.in_progress = False
        #: Why the last aborted cycle stopped (``None`` until one does):
        #: ``injected: …``, ``stale: …`` or ``nothing to split``; the
        #: same string the journal (and, for a begun cycle, the WAL) gets.
        self.last_abort_reason: str | None = None

    def _default_gate(self, fn):
        with self._default_gate_lock:
            return fn()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "OnlineRebalancer":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-rebalancer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                # One partition a cycle, so keep going while cycles commit;
                # an abort waits out the interval before the next attempt.
                while self.overflowing() and not self._stop.is_set():
                    if self.run_cycle().report is None:
                        break
            except BaseException:  # never kill the maintenance thread
                logger.exception("rebalance cycle failed")

    # -- one cycle ----------------------------------------------------------

    def overflowing(self) -> list:
        """Partitions currently above the overflow watermark."""
        threshold = int(
            self.index.config.partition_capacity * self.overflow_factor
        )
        return [
            pid for pid, partition in self.index.partitions.items()
            if partition.n_records > threshold
        ]

    def run_cycle(self) -> RebalanceCycle:
        """Run one snapshot→repack→swap→invalidate cycle now: split the
        first overflowing partition that can be split.

        Fault sites: ``ingest/split`` fires between snapshot and repack
        (a crash there aborts the cycle before any mutation, leaving the
        WAL with a dangling begin marker — the crash-mid-split scenario);
        ``ingest/swap`` fires inside the gate before the swap mutates
        anything (crash-mid-swap).  Either way the live index stays on
        the pre-split layout and replay agrees.
        """
        from ..faults.errors import InjectedTaskCrash
        from ..telemetry.metrics import get_registry
        from ..telemetry.spans import get_tracer

        self._cycle_seq += 1
        cycle = RebalanceCycle(cycle=self._cycle_seq)
        tracer = get_tracer()
        registry = get_registry()
        with self._stats_lock:
            self.in_progress = True
        root = tracer.start_span(
            "rebalance/cycle", cycle=cycle.cycle,
            overflow_factor=self.overflow_factor,
        )
        try:
            self._run_cycle_inner(cycle, tracer, registry, root)
        except InjectedTaskCrash as exc:
            self._abort(cycle, "injected", exc)
        except StaleRebalancePlan as exc:
            self._abort(cycle, "stale", exc)
        finally:
            with self._stats_lock:
                self.in_progress = False
                self.cycles_total += 1
                if cycle.aborted is not None:
                    self.cycles_aborted += 1
                if cycle.report is not None:
                    self.partitions_split += cycle.report.partitions_split
                    self.partitions_created += cycle.report.partitions_created
                    self.records_moved += cycle.report.records_moved
                self.last_pause_s = cycle.pause_s
                self.max_pause_s = max(self.max_pause_s, cycle.pause_s)
            registry.counter(
                "rebalance_cycles_total",
                "Online rebalance cycles attempted",
            ).inc()
            if cycle.aborted is not None:
                root.set("aborted", cycle.aborted)
                registry.counter(
                    "rebalance_cycles_aborted_total",
                    "Online rebalance cycles that aborted before commit",
                ).inc()
                registry.counter(
                    f"rebalance_cycles_aborted_"
                    f"{cycle.abort_kind.replace(' ', '_')}_total",
                    f"Online rebalance cycles aborted: {cycle.abort_kind}",
                ).inc()
            elif cycle.report is not None:
                registry.counter(
                    "rebalance_partitions_split_total",
                    "Partitions split by online rebalance cycles",
                ).inc(cycle.report.partitions_split)
                registry.counter(
                    "rebalance_records_moved_total",
                    "Records migrated by online rebalance cycles",
                ).inc(cycle.report.records_moved)
            registry.gauge(
                "rebalance_last_pause_ms",
                "Swap-gate hold time of the last rebalance cycle",
            ).set(cycle.pause_s * 1000.0)
            tracer.end_span(root)
        return cycle

    def _run_cycle_inner(self, cycle, tracer, registry, root) -> None:
        index = self.index
        wal = self.wal

        # Snapshot under the gate: a consistent view of the overflowing
        # partitions, with the begin marker logged before any append can
        # interleave behind it.
        def snapshot():
            plan = None
            for pid in self.overflowing():
                plan = plan_rebalance(
                    index, overflow_factor=self.overflow_factor,
                    partition_ids=[pid], build=False,
                )
                if plan is not None:
                    break
            if plan is not None and wal is not None:
                wal.log_rebalance_begin(
                    cycle.cycle, self.overflow_factor, plan.partition_ids
                )
            return plan

        started = time.monotonic()
        span = tracer.start_span("rebalance/plan", parent=root)
        plan = self._gate(snapshot)
        tracer.end_span(span)
        cycle.plan_s = time.monotonic() - started
        if plan is None:
            # No begin marker was logged, so the WAL has nothing to close.
            self._abort(cycle, "nothing to split", begun=False)
            return
        root.set("partitions", list(plan.partition_ids))
        self._fault_point("split", plan)

        # Repack outside the gate: reads and writes proceed on the old
        # layout while the replacement partitions are built.
        started = time.monotonic()
        span = tracer.start_span("rebalance/build", parent=root)
        plan.build(index.config, index.clustered)
        tracer.end_span(span)
        cycle.build_s = time.monotonic() - started

        # Swap under the gate: fingerprint check + pointer swaps only.
        def swap():
            self._fault_point("swap", plan)
            report = apply_rebalance(index, plan)
            if wal is not None:
                wal.log_rebalance_commit(cycle.cycle)
            return report

        started = time.monotonic()
        span = tracer.start_span("rebalance/swap", parent=root)
        try:
            cycle.report = self._gate(swap)
        finally:
            tracer.end_span(span)
            cycle.pause_s = time.monotonic() - started
        if self.journal is not None:
            self.journal.record(
                "rebalance", cycle=cycle.cycle,
                partitions=list(plan.partition_ids),
                created=list(cycle.report.created_partition_ids),
                records_moved=cycle.report.records_moved,
                pause_ms=cycle.pause_s * 1000.0,
            )
        if self.on_applied is not None:
            self.on_applied(cycle.report)

    def _fault_point(self, stage: str, plan) -> None:
        """One injectable site per cycle phase (``ingest/split|swap``).

        ``task-slow`` sleeps (stretching the phase, which is how tests
        hold a cycle mid-migration); ``task-crash`` raises after the
        retry budget like every other injected crash site — here a crash
        aborts the whole cycle rather than retrying the phase, because
        the snapshot may already be stale by the time a retry ran.
        """
        from ..faults.errors import InjectedTaskCrash
        from ..faults.injector import get_injector

        injector = get_injector()
        if injector is None:
            return
        pid = plan.partition_ids[0] if plan.partition_ids else None
        seq = injector.next_seq("ingest", stage)
        fault = injector.ingest_fault(stage, pid, seq, attempt=1)
        if fault is None:
            return
        if fault.kind == "task-slow":
            time.sleep(fault.delay_ms / 1000.0)
            return
        raise InjectedTaskCrash(f"ingest/{stage}/partition {pid}", 1)

    def _abort(
        self, cycle: RebalanceCycle, kind: str, detail=None,
        begun: bool = True,
    ) -> None:
        """Record why ``cycle`` stopped short of a commit: ``kind`` is
        one of :data:`ABORT_KINDS`, ``detail`` what raised; ``begun``
        says whether its WAL begin marker (which an abort record closes)
        was logged."""
        reason = kind if detail is None else f"{kind}: {detail}"
        cycle.aborted = reason
        cycle.abort_kind = kind
        with self._stats_lock:
            self.last_abort_reason = reason
        if self.wal is not None and begun:
            self.wal.log_rebalance_abort(cycle.cycle, reason)
        if self.journal is not None:
            self.journal.record(
                "rebalance-abort", cycle=cycle.cycle, reason=reason
            )
        logger.info("rebalance cycle %d aborted: %s", cycle.cycle, reason)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        with self._stats_lock:
            return {
                "overflow_factor": self.overflow_factor,
                "cycles_total": self.cycles_total,
                "cycles_aborted": self.cycles_aborted,
                "partitions_split": self.partitions_split,
                "partitions_created": self.partitions_created,
                "records_moved": self.records_moved,
                "last_pause_s": self.last_pause_s,
                "max_pause_s": self.max_pause_s,
                "in_progress": self.in_progress,
                "last_abort_reason": self.last_abort_reason,
            }
