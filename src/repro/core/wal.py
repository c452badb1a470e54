"""Write-ahead durability for the streaming-ingest path.

TARDIS as published is batch-built; our serving tier accepts record
appends while answering queries (docs/SERVING.md, "Writes & online
rebalancing").  Durability follows the classical WAL contract:

* A write is **acknowledged** only after its logical record — id plus
  raw series values — is on disk in the log.  The in-memory index apply
  happens *after* the log write, so a crash at any instant loses only
  unacknowledged work.
* A background rebalance cycle (:mod:`repro.core.rebalance`) brackets
  its structural change with ``rebalance-begin`` / ``rebalance-commit``
  markers.  The repack itself is **not** journaled record by record:
  :func:`repro.core.rebalance.rebalance_index` is deterministic given
  the index state, so replay simply re-runs it at each commit marker.
  A ``begin`` without its ``commit`` means the crash landed mid-cycle;
  replay skips it and recovers the *pre-split* state — never a torn
  in-between (tests/faults/test_chaos_ingest.py).

The log is JSON lines (``repro.wal/v1``): floats round-trip through
``repr`` exactly, so a replayed series is bit-identical to the one the
client sent.  Replay tolerates a torn final line — the page the crash
interrupted — and refuses anything else that fails to parse.

Recovery of a served index is therefore::

    index = load_index(base_dir)          # the snapshot the WAL extends
    report = replay_wal(index, wal_path)  # acknowledged writes + splits
    index.validate()

after which the same WAL file can keep receiving appends (replay never
writes), so repeated crash/restart cycles replay from the unchanged
base every time.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "WAL_FORMAT",
    "WalError",
    "WriteAheadLog",
    "WalReplayReport",
    "replay_wal",
    "read_wal",
]

#: Format tag stamped on the header line and checked by replay.
WAL_FORMAT = "repro.wal/v1"

#: Replay hands consecutive appends to ``ingest`` in runs of at most this
#: many rows (bounds the matrix a long append-only log is staged in).
_REPLAY_RUN_ROWS = 1024


class WalError(RuntimeError):
    """The log is unreadable beyond the torn-tail allowance."""


class WriteAheadLog:
    """Append-only JSON-lines journal of acknowledged writes and splits.

    Thread-safe: the serving batcher logs appends while the background
    rebalancer logs cycle markers.  ``fsync=True`` (the default) forces
    every batch to stable storage before the caller may acknowledge;
    ``fsync=False`` trusts the OS page cache (fine for benchmarks,
    wrong for durability claims).
    """

    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._file = open(self.path, "a", encoding="utf-8")
        self.appends_logged = 0
        self.cycles_logged = 0
        if fresh:
            self._write({"kind": "header", "format": WAL_FORMAT})

    def _write(self, doc: dict) -> None:
        line = json.dumps(doc, separators=(",", ":"))
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())

    def log_appends(self, records, sync: bool = True) -> None:
        """Journal a batch of ``(record_id, series)`` pairs durably.

        Returns only once the batch is flushed (and fsynced when
        enabled) — the precondition for acknowledging the write.

        ``sync=False`` defers the fsync: the lines are written and
        flushed to the OS, but stable storage is only guaranteed after
        a later :meth:`sync`.  The serving batcher uses this to group
        all of a flush window's writes under one fsync *after* the
        window's reads execute — acknowledgements still wait for the
        sync, so ack ⇒ fsynced holds, but reads sharing the window no
        longer stall behind per-batch disk barriers.
        """
        lines = []
        for record_id, series in records:
            series = np.asarray(series, dtype=np.float64)
            lines.append(json.dumps(
                {
                    "kind": "append",
                    "record_id": int(record_id),
                    "series": series.tolist(),
                },
                separators=(",", ":"),
            ))
        with self._lock:
            for line in lines:
                self._file.write(line + "\n")
            self._file.flush()
            if self.fsync and sync:
                os.fsync(self._file.fileno())
            self.appends_logged += len(lines)

    def sync(self) -> None:
        """Force everything written so far to stable storage.

        The barrier that completes any ``log_appends(..., sync=False)``
        calls issued earlier; a no-op when the log was opened with
        ``fsync=False``.
        """
        with self._lock:
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())

    def log_rebalance_begin(
        self, cycle: int, overflow_factor: float, partition_ids=()
    ) -> None:
        """Mark a cycle's snapshot point, recording *which* partitions it
        will split — replay re-runs the split over exactly that set, so
        appends to other partitions between begin and commit cannot drag
        extra splits into the replayed state."""
        self._write({
            "kind": "rebalance-begin",
            "cycle": int(cycle),
            "overflow_factor": float(overflow_factor),
            "partitions": [int(pid) for pid in partition_ids],
        })

    def log_rebalance_commit(self, cycle: int) -> None:
        self._write({"kind": "rebalance-commit", "cycle": int(cycle)})
        self.cycles_logged += 1

    def log_rebalance_abort(self, cycle: int, reason: str) -> None:
        """Informational: the cycle gave up before its commit point.

        Replay treats an aborted cycle exactly like a crashed one — the
        marker only makes post-mortems readable.
        """
        self._write({
            "kind": "rebalance-abort",
            "cycle": int(cycle),
            "reason": str(reason),
        })

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class WalReplayReport:
    """What :func:`replay_wal` reconstructed."""

    lines_read: int = 0
    appends_applied: int = 0
    rebalances_replayed: int = 0
    #: Cycles whose ``begin`` never reached ``commit`` (crash or abort):
    #: skipped, leaving the pre-split state.
    rebalances_discarded: int = 0
    #: True when the final line was torn mid-write by the crash.
    torn_tail: bool = False
    record_ids: list = field(default_factory=list)


def read_wal(path: str | Path) -> tuple[list[dict], bool]:
    """Parse a WAL into ``(records, torn_tail)``.

    A JSON error on the final non-empty line is the torn tail a crash
    legitimately leaves; anywhere else it is corruption and raises
    :class:`WalError`.
    """
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    lines = [line for line in raw if line.strip()]
    records: list[dict] = []
    torn = False
    for i, line in enumerate(lines):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                torn = True
                break
            raise WalError(f"{path}: unparseable line {i + 1} (not the tail)")
        if not isinstance(doc, dict) or "kind" not in doc:
            raise WalError(f"{path}: line {i + 1} is not a WAL record")
        records.append(doc)
    if records and records[0].get("kind") == "header":
        header = records.pop(0)
        if header.get("format") != WAL_FORMAT:
            raise WalError(
                f"{path}: unsupported WAL format {header.get('format')!r}"
            )
    return records, torn


def replay_wal(index, path: str | Path) -> WalReplayReport:
    """Re-apply a WAL onto the base index it extends, in log order.

    ``index`` must be the snapshot the log was opened against (same
    records, same layout — normally ``load_index`` of the served
    directory).  Appends re-insert through Tardis-G with their original
    record ids — each run of consecutive appends as one
    :meth:`~repro.core.builder.TardisIndex.ingest` batch, closed at every
    other record, so the order against rebalance markers is the log's;
    each committed rebalance re-runs the deterministic
    :func:`~repro.core.rebalance.rebalance_index` at its commit point,
    reproducing the exact split the live process applied.
    """
    from .rebalance import rebalance_index

    records, torn = read_wal(path)
    report = WalReplayReport(torn_tail=torn)
    begun: dict[int, tuple] = {}
    run: list[dict] = []

    def apply_run() -> None:
        if run:
            applied = index.ingest(
                np.asarray([doc["series"] for doc in run], dtype=np.float64),
                record_ids=[doc["record_id"] for doc in run],
            )
            report.appends_applied += len(run)
            report.record_ids.extend(applied.record_ids)
            run.clear()

    for doc in records:
        report.lines_read += 1
        kind = doc["kind"]
        if kind == "append":
            run.append(doc)
            if len(run) == _REPLAY_RUN_ROWS:
                apply_run()
            continue
        # Everything else is ordered against the appends around it.
        apply_run()
        if kind == "rebalance-begin":
            begun[int(doc["cycle"])] = (
                float(doc["overflow_factor"]),
                [int(pid) for pid in doc.get("partitions", [])] or None,
            )
        elif kind == "rebalance-commit":
            entry = begun.pop(int(doc["cycle"]), None)
            if entry is not None:
                factor, pids = entry
                rebalance_index(
                    index, overflow_factor=factor, partition_ids=pids
                )
                report.rebalances_replayed += 1
        elif kind == "rebalance-abort":
            if begun.pop(int(doc["cycle"]), None) is not None:
                report.rebalances_discarded += 1
        elif kind == "header":
            continue
        else:
            raise WalError(f"{path}: unknown WAL record kind {kind!r}")
    apply_run()
    report.rebalances_discarded += len(begun)
    return report
