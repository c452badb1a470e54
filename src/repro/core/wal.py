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

The log is binary, ``repro.wal/v2``: the magic line ``repro.wal/v2\n``,
then frames ``<u8 kind><u32 len><u32 crc32(body)>`` + body, all
little-endian.  An append frame holds one :meth:`WriteAheadLog.log_appends`
call — ``<u32 n><u32 L>``, n int64 record ids, n×L float64 values — so a
replayed series is the client's float64 bits, unprinted.  A marker
frame holds a rebalance marker as compact JSON.  Replay tolerates a
final frame that is short or fails its CRC — the write the crash
interrupted — and refuses a bad frame anywhere before it.  Opening a
:class:`WriteAheadLog` on such a log cuts that torn frame off first, so
appends after a restart follow the last whole frame.  Logs in the
earlier JSON-lines format (``repro.wal/v1``) still read and replay; a
:class:`WriteAheadLog` will not append to one.

Recovery of a served index is therefore::

    index = load_index(base_dir)          # the snapshot the WAL extends
    report = replay_wal(index, wal_path)  # acknowledged writes + splits
    index.validate()

after which the same WAL file can keep receiving appends (replay never
writes), so repeated crash/restart cycles replay from the unchanged
base every time.  ``repro serve --wal`` does exactly this on start-up
when the log is not empty, so a restarted server hands out record ids
after the ones already logged.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
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

#: Format tag; its line is the first thing in every log written here.
WAL_FORMAT = "repro.wal/v2"
_MAGIC = f"{WAL_FORMAT}\n".encode()
#: The JSON-lines format of earlier releases: read, never appended to.
_V1_FORMAT = "repro.wal/v1"

#: Frame header: kind, body length, CRC32 of the body.
_FRAME = struct.Struct("<BII")
#: Append body header: row count n, series length L.
_APPEND_HEAD = struct.Struct("<II")
_APPEND = 1
_MARKER = 2

#: Replay hands consecutive appends to ``ingest`` in runs of at most this
#: many rows (bounds the matrix a long append-only log is staged in).
_REPLAY_RUN_ROWS = 1024


class WalError(RuntimeError):
    """The log is unreadable beyond the torn-tail allowance."""


class WriteAheadLog:
    """Append-only binary journal of acknowledged writes and splits.

    Thread-safe: the serving batcher logs appends while the background
    rebalancer logs cycle markers.  Every synced write is fsynced before
    the caller may acknowledge it.

    Opening a non-empty log cuts off a torn final frame (the write a
    crash interrupted, never acknowledged), so later appends follow the
    last whole frame and the log stays readable end to end.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = self.path.read_bytes() if self.path.exists() else b""
        if data and not data.startswith(_MAGIC):
            raise WalError(
                f"{self.path} is not a {WAL_FORMAT} log; a "
                f"{_V1_FORMAT} log is read-only: replay it, then "
                f"start a new log"
            )
        self._file = open(self.path, "ab")
        self.appends_logged = 0
        self.cycles_logged = 0
        if not data:
            with self._lock:
                self._flush(_MAGIC, sync=True)
            return
        _, whole = _whole_frames(self.path, data)
        if whole < len(data):
            self._file.truncate(whole)
            os.fsync(self._file.fileno())

    def _flush(self, raw: bytes, sync: bool) -> None:
        """Write ``raw`` and flush it; fsync too when asked.
        The caller holds the lock."""
        self._file.write(raw)
        self._file.flush()
        if sync:
            os.fsync(self._file.fileno())

    def _write(self, doc: dict) -> None:
        body = json.dumps(doc, separators=(",", ":")).encode()
        with self._lock:
            self._flush(_frame(_MARKER, body), sync=True)

    def log_appends(self, records, sync: bool = True) -> None:
        """Journal a batch of ``(record_id, series)`` pairs durably, as
        one append frame.

        Returns only once the batch is flushed and fsynced — the
        precondition for acknowledging the write.

        ``sync=False`` defers the fsync: the frame is written and
        flushed to the OS, but stable storage is only guaranteed after
        a later :meth:`sync`.  The serving batcher uses this to group
        all of a flush window's writes under one fsync *after* the
        window's reads execute — acknowledgements still wait for the
        sync, so ack ⇒ fsynced holds, but reads sharing the window no
        longer stall behind per-batch disk barriers.
        """
        records = list(records)
        raw = b""
        if records:
            record_ids, rows = zip(*records)
            values = np.asarray(rows, dtype="<f8")
            if values.ndim != 2:
                raise ValueError("appended series must share one length")
            raw = _frame(_APPEND, b"".join((
                _APPEND_HEAD.pack(*values.shape),
                np.asarray(record_ids, dtype="<i8").tobytes(),
                values.tobytes(),
            )))
        with self._lock:
            self._flush(raw, sync)
            self.appends_logged += len(records)

    def sync(self) -> None:
        """Force everything written so far to stable storage.

        The barrier that completes any ``log_appends(..., sync=False)``
        calls issued earlier.
        """
        with self._lock:
            self._flush(b"", sync=True)

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


def _frame(kind: int, body: bytes) -> bytes:
    return _FRAME.pack(kind, len(body), zlib.crc32(body)) + body


@dataclass
class WalReplayReport:
    """What :func:`replay_wal` reconstructed."""

    #: Records read: one per appended series, one per marker.
    lines_read: int = 0
    appends_applied: int = 0
    rebalances_replayed: int = 0
    #: Cycles whose ``begin`` never reached ``commit`` (crash or abort):
    #: skipped, leaving the pre-split state.
    rebalances_discarded: int = 0
    #: True when the final frame (a v1 log: line) was torn by the crash.
    torn_tail: bool = False
    record_ids: list = field(default_factory=list)


def _read_entries(path: str | Path) -> tuple[list, bool]:
    """Decode a log into ``(entries, torn_tail)``.

    Each entry is an append — ``(record_ids, values)``, int64 ``(n,)``
    and float64 ``(n, L)`` — or a marker record dict.  A v1 log gives
    one single-row append per line.
    """
    data = Path(path).read_bytes()
    if not data.startswith(_MAGIC):
        return _read_v1(path, data)
    frames, whole = _whole_frames(path, data)
    entries = [
        _decode_frame(path, pos, kind, body) for pos, kind, body in frames
    ]
    return entries, whole < len(data)


def _whole_frames(path, data: bytes) -> tuple[list, int]:
    """The ``(pos, kind, body)`` of each whole frame of a v2 log, and the
    byte where the last of them ends — short of ``len(data)`` when the
    final frame is torn (short, or its CRC fails).  A bad frame before
    the final one raises :class:`WalError`."""
    frames: list = []
    pos, end = len(_MAGIC), len(data)
    while end - pos >= _FRAME.size:
        kind, size, crc = _FRAME.unpack_from(data, pos)
        start, stop = pos + _FRAME.size, pos + _FRAME.size + size
        if stop > end:
            break  # cut inside the body
        body = memoryview(data)[start:stop]
        if zlib.crc32(body) != crc:
            if stop == end:
                break  # the last write, half on disk
            raise WalError(f"{path}: frame at byte {pos} fails its CRC "
                           f"(not the tail)")
        frames.append((pos, kind, body))
        pos = stop
    return frames, pos


def _decode_frame(path, pos: int, kind: int, body: memoryview):
    if kind == _APPEND:
        n, length = _APPEND_HEAD.unpack_from(body)
        if len(body) != _APPEND_HEAD.size + 8 * n * (1 + length):
            raise WalError(f"{path}: append frame at byte {pos} holds "
                           f"{len(body)} bytes, not {n} rows of {length}")
        record_ids = np.frombuffer(body, "<i8", n, _APPEND_HEAD.size)
        values = np.frombuffer(
            body, "<f8", n * length, _APPEND_HEAD.size + 8 * n
        ).reshape(n, length)
        return record_ids, values
    if kind == _MARKER:
        try:
            doc = json.loads(bytes(body))
        except ValueError:
            doc = None
        if isinstance(doc, dict) and "kind" in doc:
            return doc
    raise WalError(f"{path}: frame at byte {pos} is not a WAL record")


def _read_v1(path, data: bytes) -> tuple[list, bool]:
    """The JSON-lines ``repro.wal/v1`` reader: a JSON error on the final
    non-empty line is the torn tail, anywhere else corruption."""
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise WalError(f"{path}: neither {WAL_FORMAT} nor {_V1_FORMAT}: "
                       f"{exc}") from None
    lines = [line for line in raw if line.strip()]
    entries: list = []
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
        if doc["kind"] == "append":
            doc = (
                np.array([doc["record_id"]], dtype=np.int64),
                np.array([doc["series"]], dtype=np.float64),
            )
        entries.append(doc)
    if entries and isinstance(entries[0], dict) \
            and entries[0]["kind"] == "header":
        header = entries.pop(0)
        if header.get("format") != _V1_FORMAT:
            raise WalError(
                f"{path}: unsupported WAL format {header.get('format')!r}"
            )
    return entries, torn


def read_wal(path: str | Path) -> tuple[list[dict], bool]:
    """Parse a WAL into ``(records, torn_tail)``.

    One record dict per appended series — ``{"kind": "append",
    "record_id": int, "series": float64 array}`` — and per rebalance
    marker, in log order.  A short or CRC-bad final frame (a JSON error
    on a v1 log's final line) is the torn tail a crash legitimately
    leaves; a bad frame anywhere else raises :class:`WalError`.
    """
    entries, torn = _read_entries(path)
    records: list[dict] = []
    for entry in entries:
        if isinstance(entry, dict):
            records.append(entry)
            continue
        for record_id, series in zip(entry[0].tolist(), entry[1]):
            records.append(
                {"kind": "append", "record_id": record_id, "series": series}
            )
    return records, torn


def replay_wal(index, path: str | Path) -> WalReplayReport:
    """Re-apply a WAL onto the base index it extends, in log order.

    ``index`` must be the snapshot the log was opened against (same
    records, same layout — normally ``load_index`` of the served
    directory).  Appends re-insert through Tardis-G with their original
    record ids — each run of consecutive appends as one
    :meth:`~repro.core.builder.TardisIndex.ingest` batch of at most
    ``_REPLAY_RUN_ROWS`` rows, cut from the append frames' matrices and
    closed at every other record, so the order against rebalance markers
    is the log's; each committed rebalance re-runs the deterministic
    :func:`~repro.core.rebalance.rebalance_index` at its commit point,
    reproducing the exact split the live process applied.
    """
    from .rebalance import rebalance_index

    entries, torn = _read_entries(path)
    report = WalReplayReport(torn_tail=torn)
    begun: dict[int, tuple] = {}
    run: list[tuple] = []  # (record_ids, values) pieces of the open run
    held = 0

    def apply_run() -> None:
        nonlocal held
        if run:
            record_ids = np.concatenate([ids for ids, _ in run])
            values = (
                run[0][1] if len(run) == 1
                else np.concatenate([rows for _, rows in run])
            )
            applied = index.ingest(values, record_ids=record_ids.tolist())
            report.appends_applied += held
            report.record_ids.extend(applied.record_ids)
            run.clear()
            held = 0

    for entry in entries:
        if not isinstance(entry, dict):
            record_ids, values = entry
            report.lines_read += len(record_ids)
            while len(record_ids):
                take = _REPLAY_RUN_ROWS - held
                run.append((record_ids[:take], values[:take]))
                held += len(run[-1][0])
                record_ids, values = record_ids[take:], values[take:]
                if held == _REPLAY_RUN_ROWS:
                    apply_run()
            continue
        report.lines_read += 1
        kind = entry["kind"]
        # Everything else is ordered against the appends around it.
        apply_run()
        if kind == "rebalance-begin":
            # Every server life numbers its cycles from 1, so a begin
            # can meet an earlier life's uncommitted begin of the same
            # number: that one was discarded by the crash that ended it.
            cycle = int(entry["cycle"])
            if cycle in begun:
                report.rebalances_discarded += 1
            begun[cycle] = (
                float(entry["overflow_factor"]),
                [int(pid) for pid in entry.get("partitions", [])] or None,
            )
        elif kind == "rebalance-commit":
            pending = begun.pop(int(entry["cycle"]), None)
            if pending is not None:
                factor, pids = pending
                rebalance_index(
                    index, overflow_factor=factor, partition_ids=pids
                )
                report.rebalances_replayed += 1
        elif kind == "rebalance-abort":
            if begun.pop(int(entry["cycle"]), None) is not None:
                report.rebalances_discarded += 1
        else:
            raise WalError(f"{path}: unknown WAL record kind {kind!r}")
    apply_run()
    report.rebalances_discarded += len(begun)
    return report
