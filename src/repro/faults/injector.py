"""Deterministic fault injection with order-independent draws.

The :class:`FaultInjector` decides, site by site, whether an installed
:class:`~repro.faults.plan.FaultPlan` fires.  The crucial property is
**order independence**: a site's outcome is a pure function of
``(plan seed, rule index, site key)`` — a BLAKE2b hash mapped to
[0, 1) — never a draw from a shared RNG stream.  Neither task order nor
thread interleaving can change which faults fire, so two runs with one
plan and seed produce byte-identical fault journals
(tests/faults/test_injector.py).

Site keys are built from stable coordinates:

* engine stage tasks:   ``stage/<label>/<stage#>/<task>/<attempt>``
* partition loads:      ``partition/<pid>/<load#>/<attempt>``
* storage block reads:  ``storage/<block>/<read#>/<attempt>``
* serving groups:       ``serve/<op>/<pid>/<group#>/<attempt>``
* router→shard calls:   ``shard/<sid>/<op>/<call#>/<attempt>``
* ingest writes/cycles: ``ingest/<stage>/<pid>/<seq#>/<attempt>``
* socket replies:       ``socket/<digest>/<reply#>``

The ``#`` counters are per-key tallies kept by the injector; on the
cluster paths they are advanced from the driver thread only, so they
too are backend-independent.

Every fired fault is journaled twice: in the injector's own
timestamp-free journal (:meth:`journal` — sorted, byte-comparable) and
as a ``fault`` event in the PR 4 telemetry journal, alongside
``faults_*`` counters in the metrics registry.

A process has at most one active injector (:func:`install_plan` /
:func:`get_injector` / :func:`clear_injector`); when none is installed
every hook site reduces to one ``None`` check, so a fault-free run pays
nothing (the bench-gate guarantee).
"""

from __future__ import annotations

import hashlib
import json
import threading
from contextlib import contextmanager
from pathlib import Path

from ..telemetry.journal import get_journal
from ..telemetry.metrics import get_registry
from .plan import FaultPlan, FaultRule, RetryPolicy, load_fault_plan

__all__ = [
    "FaultInjector",
    "active_plan",
    "clear_injector",
    "get_injector",
    "install_plan",
]


class FaultInjector:
    """Evaluates one fault plan; thread-safe; deterministic by design."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.retry: RetryPolicy = plan.retry
        self._seed = plan.seed
        self._rules = list(plan.rules)
        self._lock = threading.Lock()
        self._seq: dict[tuple, int] = {}
        self._entries: list[tuple[tuple, dict]] = []
        self._counts: dict[str, int] = {}

    # -- deterministic randomness -------------------------------------------

    def _draw(self, *key) -> float:
        """Uniform [0, 1) from a hash of (seed, key) — order-independent."""
        digest = hashlib.blake2b(
            "\x1f".join(str(part) for part in (self._seed, *key)).encode(),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def next_seq(self, *key) -> int:
        """Advance and return the per-key site counter (starts at 0)."""
        with self._lock:
            value = self._seq.get(key, 0)
            self._seq[key] = value + 1
        return value

    def backoff_s(self, attempt: int, *site) -> float:
        """Retry pause after failed ``attempt`` with deterministic jitter."""
        return self.retry.backoff_s(
            attempt, draw=self._draw("backoff", *site)
        )

    # -- matching -----------------------------------------------------------

    def _match(
        self,
        kinds: tuple,
        site: tuple,
        label: str | None = None,
        partition_id: int | None = None,
        block_id: int | None = None,
        attempt: int | None = None,
        shard_id: int | None = None,
    ) -> FaultRule | None:
        """First rule whose kind, scope, and probability draw fire here."""
        for index, rule in enumerate(self._rules):
            if rule.kind not in kinds:
                continue
            if not rule.matches(
                label=label, partition_id=partition_id,
                block_id=block_id, attempt=attempt, shard_id=shard_id,
            ):
                continue
            if rule.probability < 1.0:
                if self._draw(index, *site) >= rule.probability:
                    continue
            self._record(
                rule, site, label=label, partition_id=partition_id,
                block_id=block_id, attempt=attempt, shard_id=shard_id,
            )
            return rule
        return None

    def _record(
        self, rule: FaultRule, site: tuple,
        label=None, partition_id=None, block_id=None, attempt=None,
        shard_id=None,
    ) -> None:
        entry = {"kind": rule.kind, "site": "/".join(str(p) for p in site)}
        if label is not None:
            entry["label"] = label
        if partition_id is not None:
            entry["partition_id"] = int(partition_id)
        if block_id is not None:
            entry["block_id"] = int(block_id)
        if shard_id is not None:
            entry["shard_id"] = int(shard_id)
        if attempt is not None:
            entry["attempt"] = int(attempt)
        if rule.delay_ms:
            entry["delay_ms"] = rule.delay_ms
        with self._lock:
            self._entries.append((site, entry))
            self._counts[rule.kind] = self._counts.get(rule.kind, 0) + 1
        registry = get_registry()
        registry.counter(
            "faults_injected_total", "Faults fired by the active plan"
        ).inc()
        registry.counter(
            f"faults_{rule.kind.replace('-', '_')}_total",
            f"Injected {rule.kind} faults",
        ).inc()
        get_journal().record("fault", injected=rule.kind, **{
            k: v for k, v in entry.items() if k != "kind"
        })

    def count_retry(self) -> None:
        """Account one recovery attempt triggered by an injected fault."""
        get_registry().counter(
            "faults_retries_total",
            "Retry attempts performed to recover from injected faults",
        ).inc()

    def sit_out(
        self, fault_at, backoff_site: tuple, exhausted,
    ) -> tuple[int, float, float]:
        """The one retry loop: draw ``fault_at(attempt)`` for attempts
        1, 2, … until no fault or a ``task-slow`` (its delay) ends it.
        Any other kind fails the attempt: it is retried after
        :meth:`backoff_s` ``(attempt, *backoff_site)``, or, with the
        budget spent, ``exhausted(attempt, backoff_s so far)`` is raised.

        Never sleeps: returns ``(failed_attempts, backoff_s, slow_s)``
        for the caller to spend — real-plane sites (partition loads,
        serving groups and appends) sleep it, simulated-plane sites
        (engine tasks, storage reads) charge it to the simulated clock.
        """
        backoff = 0.0
        budget = self.retry.max_attempts
        for attempt in range(1, budget + 1):
            fault = fault_at(attempt)
            if fault is None:
                return attempt - 1, backoff, 0.0
            if fault.kind == "task-slow":
                return attempt - 1, backoff, fault.delay_ms / 1000.0
            if attempt < budget:
                self.count_retry()
                backoff += self.backoff_s(attempt, *backoff_site)
        raise exhausted(budget, backoff)

    # -- hook sites ---------------------------------------------------------

    def task_fault(
        self, label: str, stage_seq: int, task: int, attempt: int
    ) -> FaultRule | None:
        """Engine stage task attempt: crash or straggle?"""
        return self._match(
            ("task-crash", "task-slow"),
            ("stage", label, stage_seq, task, attempt),
            label=label, attempt=attempt,
        )

    def partition_load_fault(
        self, partition_id: int, load_seq: int, attempt: int
    ) -> FaultRule | None:
        """One partition-load attempt: IO error or straggler delay?"""
        return self._match(
            ("partition-load-error", "task-slow"),
            ("partition", partition_id, load_seq, attempt),
            label="query/load", partition_id=partition_id, attempt=attempt,
        )

    def storage_fault(
        self, block_id: int, read_seq: int, attempt: int
    ) -> FaultRule | None:
        """One storage block read attempt."""
        return self._match(
            ("storage-read-error", "task-slow"),
            ("storage", block_id, read_seq, attempt),
            label="storage/read", block_id=block_id, attempt=attempt,
        )

    def serve_fault(
        self, op: str, partition_id: int, group_seq: int, attempt: int
    ) -> FaultRule | None:
        """One serving batch-group execution attempt."""
        return self._match(
            ("task-crash", "task-slow"),
            ("serve", op, partition_id, group_seq, attempt),
            label=f"serve/{op}", partition_id=partition_id, attempt=attempt,
        )

    def shard_fault(
        self, shard_id: int, op: str, call_seq: int, attempt: int
    ) -> FaultRule | None:
        """One router→shard call attempt: dead shard or slow network?

        ``task-crash`` models the shard being unreachable for this call
        (the router treats it like a connection failure and falls over
        to a replica); ``task-slow`` delays the call by ``delay_ms``.
        """
        return self._match(
            ("task-crash", "task-slow"),
            ("shard", shard_id, op, call_seq, attempt),
            label=f"shard/{op}", shard_id=shard_id, attempt=attempt,
        )

    def ingest_fault(
        self, stage: str, partition_id: int | None, seq: int, attempt: int
    ) -> FaultRule | None:
        """One streaming-ingest site: ``append``, ``split``, or ``swap``.

        ``ingest/append`` guards the serving write apply (a crash fails
        the write *before* it is acknowledged); ``ingest/split`` and
        ``ingest/swap`` guard the online rebalancer's repack and swap
        phases (a crash aborts the cycle pre-mutation, leaving a
        dangling WAL begin marker for replay to discard).  Scope rules
        with ``stage: "ingest/*"`` patterns.
        """
        return self._match(
            ("task-crash", "task-slow"),
            ("ingest", stage, partition_id, seq, attempt),
            label=f"ingest/{stage}", partition_id=partition_id,
            attempt=attempt,
        )

    def drop_reply(self, payload: bytes) -> bool:
        """Should the server cut the connection instead of replying?"""
        digest = hashlib.blake2b(payload, digest_size=6).hexdigest()
        seq = self.next_seq("socket", digest)
        return self._match(
            ("socket-drop",), ("socket", digest, seq), label="socket",
        ) is not None

    # -- introspection ------------------------------------------------------

    def journal(self) -> list[dict]:
        """Every injected fault, deterministically ordered.

        Entries carry no timestamps and are sorted by site key, so two
        runs that injected the same faults — regardless of thread
        interleaving — produce identical journals.
        """
        with self._lock:
            entries = list(self._entries)
        entries.sort(key=lambda pair: (
            tuple(str(p) for p in pair[0]), pair[1]["kind"],
        ))
        return [entry for _site, entry in entries]

    def journal_lines(self) -> str:
        """The journal as canonical JSON lines (byte-comparable)."""
        return "\n".join(
            json.dumps(entry, sort_keys=True) for entry in self.journal()
        )

    def stats(self) -> dict:
        """Total and per-kind injected-fault counts."""
        with self._lock:
            return {
                "injected": sum(self._counts.values()),
                "by_kind": dict(sorted(self._counts.items())),
            }


# ---------------------------------------------------------------------------
# Process-wide installation
# ---------------------------------------------------------------------------

_ACTIVE: FaultInjector | None = None


def install_plan(plan: "FaultPlan | dict | str | Path") -> FaultInjector:
    """Activate a fault plan process-wide; returns its injector.

    Accepts a :class:`FaultPlan`, a plan dict, or a path to a plan JSON
    file.  Replaces any previously installed plan.
    """
    global _ACTIVE
    if isinstance(plan, (str, Path)):
        plan = load_fault_plan(plan)
    elif isinstance(plan, dict):
        plan = FaultPlan.from_dict(plan)
    _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def get_injector() -> FaultInjector | None:
    """The active injector, or None when fault injection is off."""
    return _ACTIVE


def clear_injector() -> None:
    """Deactivate fault injection (hooks go back to zero-cost)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def active_plan(plan: "FaultPlan | dict | str | Path"):
    """Scoped installation for tests: install, yield, always clear."""
    injector = install_plan(plan)
    try:
        yield injector
    finally:
        clear_injector()
