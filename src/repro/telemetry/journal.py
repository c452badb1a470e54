"""Bounded event journal and slow-query log for long-lived processes.

Traces answer "what happened inside *this* request"; the journal answers
"what has this process been doing lately".  It is a fixed-capacity ring
buffer of structured events — admission sheds, batch flushes, failures,
and (threshold- or sample-selected) per-query records — cheap enough to
stay permanently on in a serving process and small enough to never OOM
it.

Every record is one JSON-ready dict::

    {"seq": 17, "ts": 1722950000.123, "kind": "slow-query",
     "trace_id": "9f2c...", "op": "knn", "strategy": "target-node",
     "latency_s": 0.31, "queue_wait_s": 0.02, "batch_wait_s": 0.01,
     "execute_s": 0.27, "partitions": [4, 9], "batch_size": 8, ...}

``kind`` is open-ended; the serving tier emits ``slow-query``,
``query-sample``, ``shed``, ``error`` and ``batch``.  The journal is
exposed live over the wire (``{"op": "journal"}``), dumped as JSON lines
on shutdown (``repro serve --journal FILE``) and schema-checked by
:func:`validate_journal_record` / ``python -m repro.telemetry.validate
--journal FILE`` in CI.

The :class:`SlowQueryLog` in front decides *which* completed requests
deserve a journal record: everything at or above ``threshold_s``, plus a
seeded probabilistic sample of the rest (``sample_rate``) so the journal
shows a baseline of normal traffic to compare stragglers against.
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import Counter, deque
from pathlib import Path

__all__ = [
    "JOURNAL_SCHEMA",
    "EventJournal",
    "SlowQueryLog",
    "get_journal",
    "validate_journal_record",
    "validate_journal_header",
    "validate_journal_lines",
    "write_journal",
    "merge_journal_events",
    "write_merged_journal",
]

JOURNAL_SCHEMA = "repro.journal/v1"

#: Fields every journal record must carry.
_REQUIRED_FIELDS = ("seq", "ts", "kind")


class EventJournal:
    """Thread-safe bounded ring buffer of structured events."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self._kind_counts: Counter = Counter()

    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns the stored record.

        ``seq`` (monotone) and ``ts`` (epoch seconds) are stamped here so
        callers only supply the payload.
        """
        if not kind:
            raise ValueError("event kind must be a non-empty string")
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "ts": time.time(), "kind": kind}
            event.update(fields)
            self._events.append(event)
            self._kind_counts[kind] += 1
        return event

    def tail(self, n: int = 50, kind: str | None = None) -> list[dict]:
        """The newest ``n`` events (oldest first), optionally one kind."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        return events[-max(0, n):]

    def snapshot(self) -> list[dict]:
        """Every retained event, oldest first."""
        with self._lock:
            return list(self._events)

    def stats(self) -> dict:
        """Occupancy and per-kind counts (counts survive ring eviction)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "retained": len(self._events),
                "total": self._seq,
                "dropped": self._seq - len(self._events),
                "by_kind": dict(self._kind_counts),
            }

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._kind_counts.clear()


class SlowQueryLog:
    """Threshold + probabilistic selection of per-query journal records.

    ``threshold_s`` requests at or above it are always journaled as
    ``slow-query``; a seeded ``sample_rate`` fraction of the rest land as
    ``query-sample`` so operators can compare stragglers against normal
    traffic.  ``threshold_s=None`` disables the threshold; rate 0
    disables sampling.
    """

    def __init__(
        self,
        threshold_s: float | None = 0.1,
        sample_rate: float = 0.0,
        journal: EventJournal | None = None,
        seed: int = 0,
    ):
        if threshold_s is not None and threshold_s < 0:
            raise ValueError("threshold_s cannot be negative")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.threshold_s = threshold_s
        self.sample_rate = sample_rate
        self.journal = journal if journal is not None else get_journal()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def classify(self, latency_s: float) -> str | None:
        """``slow-query`` / ``query-sample`` / None for one latency."""
        if self.threshold_s is not None and latency_s >= self.threshold_s:
            return "slow-query"
        if self.sample_rate:
            with self._lock:
                drawn = self._rng.random()
            if drawn < self.sample_rate:
                return "query-sample"
        return None

    def observe(self, latency_s: float, **fields) -> dict | None:
        """Journal this completed request if it qualifies.

        ``fields`` is the structured payload — trace id, op/strategy,
        timing breakdown, partitions touched — stored verbatim.
        """
        kind = self.classify(latency_s)
        if kind is None:
            return None
        return self.journal.record(kind, latency_s=latency_s, **fields)


#: The process-wide journal used by the serving tier by default.
_JOURNAL = EventJournal()


def get_journal() -> EventJournal:
    """The shared event journal."""
    return _JOURNAL


# ---------------------------------------------------------------------------
# Export + validation (CI: python -m repro.telemetry.validate --journal F)
# ---------------------------------------------------------------------------


def write_journal(journal: EventJournal, path: str | Path) -> Path:
    """Dump the journal as JSON lines; returns the written path.

    The first line is a header record carrying the schema name and the
    ring-buffer accounting — most importantly the cumulative ``dropped``
    count, so a reader of the dump knows how many events were evicted
    before export (a dump with ``dropped > 0`` is a *suffix* of the
    process's history, not the whole of it).
    """
    path = Path(path)
    stats = journal.stats()
    header = {
        "schema": JOURNAL_SCHEMA,
        "capacity": stats["capacity"],
        "retained": stats["retained"],
        "total": stats["total"],
        "dropped": stats["dropped"],
    }
    lines = [json.dumps(header)]
    lines += [json.dumps(event) for event in journal.snapshot()]
    path.write_text("\n".join(lines) + "\n")
    return path


def merge_journal_events(sources: dict) -> list[dict]:
    """Interleave per-process journals into one cluster-wide event list.

    ``sources`` maps a source label — an integer shard id, or the string
    ``"router"`` — to that process's event list (:meth:`EventJournal.
    snapshot` or a ``telemetry``-op drain).  Every merged record gains:

    * ``source`` — ``"router"`` or ``"shard-<id>"`` provenance;
    * ``shard_id`` — the integer shard id for shard-sourced records
      that do not already carry one (router records such as ``failover``
      keep the shard id they named — the shard the event is *about*);
    * ``src_seq`` — the sequence number in the originating journal.

    Records sort by timestamp (ties broken by source then origin seq —
    cross-host clocks are close enough for an operator timeline, and the
    deterministic tie-break keeps re-merges byte-stable) and are
    re-stamped with a fresh monotone ``seq`` so the merged dump still
    satisfies :func:`validate_journal_lines`.
    """
    tagged: list[tuple] = []
    for label, events in sources.items():
        is_shard = isinstance(label, int)
        source = f"shard-{label}" if is_shard else str(label)
        for event in events or []:
            record = dict(event)
            record["source"] = source
            record["src_seq"] = record.pop("seq", 0)
            if is_shard and "shard_id" not in record:
                record["shard_id"] = label
            tagged.append(
                (record.get("ts", 0.0), source, record["src_seq"], record)
            )
    tagged.sort(key=lambda row: row[:3])
    merged = []
    for seq, (_ts, _src, _n, record) in enumerate(tagged, start=1):
        record["seq"] = seq
        merged.append(record)
    return merged


def write_merged_journal(path: str | Path, sources: dict,
                         source_stats: dict | None = None) -> Path:
    """Dump a cluster-merged journal as JSON lines; returns the path.

    Same format as :func:`write_journal` with the header extended for
    provenance: ``sources`` lists every contributing process and the
    ring accounting (``capacity``/``total``/``dropped``) sums over them,
    so ``dropped > 0`` still means "this dump is a suffix of cluster
    history".  ``source_stats`` maps the same labels as ``sources`` to
    each journal's :meth:`EventJournal.stats` dict; without it the
    header assumes nothing was evicted before the merge.
    """
    path = Path(path)
    merged = merge_journal_events(sources)
    retained = len(merged)
    if source_stats:
        capacity = sum(s.get("capacity", 0) for s in source_stats.values())
        total = sum(s.get("total", 0) for s in source_stats.values())
    else:
        capacity = retained
        total = retained
    header = {
        "schema": JOURNAL_SCHEMA,
        "capacity": max(capacity, retained),
        "retained": retained,
        "total": max(total, retained),
        "dropped": max(total, retained) - retained,
        "sources": sorted(
            f"shard-{label}" if isinstance(label, int) else str(label)
            for label in sources
        ),
    }
    lines = [json.dumps(header)]
    lines += [json.dumps(event) for event in merged]
    path.write_text("\n".join(lines) + "\n")
    return path


def validate_journal_record(doc: object) -> None:
    """Schema-check one journal record; raises ``ValueError`` on violation."""
    if not isinstance(doc, dict):
        raise ValueError("journal record must be a JSON object")
    for field in _REQUIRED_FIELDS:
        if field not in doc:
            raise ValueError(f"journal record missing {field!r}")
    if not isinstance(doc["seq"], int) or doc["seq"] <= 0:
        raise ValueError("'seq' must be a positive integer")
    if not isinstance(doc["ts"], (int, float)) or doc["ts"] < 0:
        raise ValueError("'ts' must be a non-negative number")
    if not isinstance(doc["kind"], str) or not doc["kind"]:
        raise ValueError("'kind' must be a non-empty string")
    if doc["kind"] in ("slow-query", "query-sample"):
        latency = doc.get("latency_s")
        if not isinstance(latency, (int, float)) or latency < 0:
            raise ValueError(
                f"{doc['kind']} record needs a numeric latency_s >= 0"
            )
        trace_id = doc.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise ValueError("'trace_id' must be a string when present")
        partitions = doc.get("partitions")
        if partitions is not None and not isinstance(partitions, list):
            raise ValueError("'partitions' must be a list when present")
    if doc["kind"] == "fault":
        injected = doc.get("injected")
        if not isinstance(injected, str) or not injected:
            raise ValueError(
                "fault record needs a non-empty 'injected' fault kind"
            )
    if doc["kind"] == "failover":
        shard_id = doc.get("shard_id")
        if not isinstance(shard_id, int) or shard_id < 0:
            raise ValueError(
                "failover record needs an integer shard_id >= 0"
            )
    if "shard_id" in doc:
        shard_id = doc["shard_id"]
        if not isinstance(shard_id, int) or isinstance(shard_id, bool) \
                or shard_id < 0:
            raise ValueError("'shard_id' must be an integer >= 0 when present")
    if "source" in doc and (
        not isinstance(doc["source"], str) or not doc["source"]
    ):
        raise ValueError("'source' must be a non-empty string when present")


def validate_journal_header(doc: dict) -> None:
    """Schema-check a journal dump header; raises ``ValueError``."""
    if doc.get("schema") != JOURNAL_SCHEMA:
        raise ValueError(
            f"unexpected schema {doc.get('schema')!r}, want {JOURNAL_SCHEMA!r}"
        )
    for field in ("capacity", "retained", "total", "dropped"):
        value = doc.get(field)
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"header {field!r} must be an integer >= 0")
    if doc["dropped"] != doc["total"] - doc["retained"]:
        raise ValueError(
            "header accounting broken: dropped != total - retained"
        )
    sources = doc.get("sources")
    if sources is not None:
        if not isinstance(sources, list) or not all(
            isinstance(s, str) and s for s in sources
        ):
            raise ValueError(
                "header 'sources' must be a list of non-empty strings"
            )


def validate_journal_lines(text: str) -> int:
    """Validate a JSON-lines journal dump; returns the record count.

    An optional first-line header (``{"schema": "repro.journal/v1",
    ...}``) is checked with :func:`validate_journal_header`; when it is
    present its ``retained`` count must match the record lines that
    follow.  Headerless dumps (pre-header exports, hand-built fixtures)
    stay valid.  Sequence numbers must be strictly increasing (the ring
    drops from the head, never reorders).
    """
    count = 0
    last_seq = 0
    header: dict | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}")
        if count == 0 and header is None and (
            isinstance(doc, dict) and "schema" in doc
        ):
            try:
                validate_journal_header(doc)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}")
            header = doc
            continue
        try:
            validate_journal_record(doc)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}")
        if doc["seq"] <= last_seq:
            raise ValueError(
                f"line {lineno}: seq {doc['seq']} not increasing"
            )
        last_seq = doc["seq"]
        count += 1
    if header is not None and header["retained"] != count:
        raise ValueError(
            f"header retained={header['retained']} but dump holds "
            f"{count} records"
        )
    return count
