"""Write-ahead log: round-trips, torn tails, and replay semantics."""

import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    TardisConfig,
    WriteAheadLog,
    build_tardis_index,
    exact_match,
    read_wal,
    replay_wal,
)
from repro.core import rebalance_index
from repro.core.wal import WalError, WalReplayReport
from repro.tsdb import random_walk

LENGTH = 48


@pytest.fixture()
def base_dataset():
    return random_walk(300, length=LENGTH, seed=11).z_normalized()


@pytest.fixture()
def stream():
    return random_walk(40, length=LENGTH, seed=12).z_normalized().values


def build_base(dataset):
    config = TardisConfig(g_max_size=80, l_max_size=16, seed=5)
    return build_tardis_index(dataset, config)


def append(index, wal, rows):
    """The serving tier's log-before-apply ordering, in miniature."""
    rows = np.asarray(rows, dtype=np.float64)
    rids = [index._next_record_id() for _ in rows]
    wal.log_appends(list(zip(rids, rows)))
    index.ingest(rows, record_ids=rids)
    return rids


class TestWalFile:
    def test_append_roundtrip_exact_bits(self, tmp_path, base_dataset, stream):
        index = build_base(base_dataset)
        path = tmp_path / "a.wal"
        with WriteAheadLog(path) as wal:
            rids = append(index, wal, stream[:5])
            assert wal.appends_logged == 5
        records, torn = read_wal(path)
        assert not torn
        assert [doc["record_id"] for doc in records] == rids
        # The logged values are the inserted float64 bits exactly.
        logged = np.asarray(records[0]["series"], dtype=np.float64)
        np.testing.assert_array_equal(logged, stream[0])

    def test_append_frames_are_byte_stable(self, tmp_path, stream):
        """The encoder may get cheaper, the bytes may not move: the magic
        line, then one CRC-framed append per call — row count, length,
        int64 ids, float64 values, all little-endian."""
        path = tmp_path / "bytes.wal"
        with WriteAheadLog(path) as wal:
            wal.log_appends([(i, row) for i, row in enumerate(stream[:6])])
            wal.log_appends([(9, stream[6].astype(np.float32))])

        def frame(ids, rows):
            rows = np.asarray(rows, dtype="<f8")
            body = (struct.pack("<II", *rows.shape)
                    + np.asarray(ids, dtype="<i8").tobytes() + rows.tobytes())
            return struct.pack("<BII", 1, len(body), zlib.crc32(body)) + body

        expected = (
            b"repro.wal/v2\n"
            + frame(range(6), stream[:6])
            + frame([9], [stream[6].astype(np.float32)])
        )
        assert path.read_bytes() == expected

    def test_markers_are_compact_json_frames(self, tmp_path):
        path = tmp_path / "markers.wal"
        with WriteAheadLog(path) as wal:
            wal.log_rebalance_begin(3, 1.5, [2, 0])
        body = b'{"kind":"rebalance-begin","cycle":3,' \
               b'"overflow_factor":1.5,"partitions":[2,0]}'
        assert path.read_bytes() == (
            b"repro.wal/v2\n"
            + struct.pack("<BII", 2, len(body), zlib.crc32(body)) + body
        )

    def test_torn_tail_is_tolerated(self, tmp_path, base_dataset, stream,
                                    tear_last_frame):
        for how in tear_last_frame.ways:
            index = build_base(base_dataset)
            path = tmp_path / f"torn-{how}.wal"
            with WriteAheadLog(path) as wal:
                append(index, wal, stream[:4])
                start = path.stat().st_size
                wal.log_appends([(99, stream[4])])  # crash mid-write
            tear_last_frame(path, start, how)
            records, torn = read_wal(path)
            assert torn, how
            assert len(records) == 4
            fresh = build_base(base_dataset)
            report = replay_wal(fresh, path)
            assert report.torn_tail
            assert report.appends_applied == 4

    def test_reopen_cuts_a_torn_tail(self, tmp_path, stream, tear_last_frame):
        """A restart after a crash mid-write appends after the last whole
        frame: opening the log cuts the torn bytes off, so the log still
        reads end to end instead of failing a CRC in its middle."""
        for how in tear_last_frame.ways:
            path = tmp_path / f"reopen-{how}.wal"
            with WriteAheadLog(path) as wal:
                wal.log_appends([(0, stream[0]), (1, stream[1])])
                wal.log_appends([(2, stream[2])])
                start = path.stat().st_size
                wal.log_appends([(3, stream[3])])  # crash mid-write
            tear_last_frame(path, start, how)
            with WriteAheadLog(path) as wal:
                assert path.stat().st_size == start, how
                wal.log_appends([(4, stream[4])])
            records, torn = read_wal(path)
            assert not torn, how
            assert [r["record_id"] for r in records] == [0, 1, 2, 4], how
            for record in records:
                assert record["series"].tobytes() == \
                    stream[record["record_id"]].tobytes()

    def test_crc_flip_before_tail_raises(self, tmp_path, stream):
        path = tmp_path / "middle.wal"
        with WriteAheadLog(path) as wal:
            wal.log_appends([(0, stream[0])])
            start = path.stat().st_size
            wal.log_appends([(1, stream[1])])
            wal.log_appends([(2, stream[2])])
        raw = bytearray(path.read_bytes())
        raw[start + 9 + 20] ^= 0x10  # one bit of the middle frame's body
        path.write_bytes(bytes(raw))
        with pytest.raises(WalError, match="CRC"):
            read_wal(path)

    def test_corruption_before_tail_raises(self, tmp_path):
        path = tmp_path / "bad.wal"
        path.write_text('not json\n{"kind": "append"}\n')
        with pytest.raises(WalError):
            read_wal(path)

    def test_unknown_schema_line_rejected(self, tmp_path):
        path = tmp_path / "schema.wal"
        path.write_text(json.dumps({"schema": "other/v9"}) + "\n")
        with pytest.raises(WalError):
            read_wal(path)


class TestV1Logs:
    """``repro.wal/v1`` (JSON lines) logs written by earlier releases
    still read and replay; nothing appends to one."""

    FIXTURE = Path(__file__).parent / "data" / "wal_v1.wal"

    def test_reads_exact_bits(self, stream):
        records, torn = read_wal(self.FIXTURE)
        assert not torn
        appends = [r for r in records if r["kind"] == "append"]
        assert [r["record_id"] for r in appends] == list(range(300, 322))
        for record, row in zip(appends, stream):
            assert record["series"].dtype == np.float64
            assert record["series"].tobytes() == row.tobytes()
        assert [(r["kind"], r["cycle"]) for r in records
                if r["kind"] != "append"] == [
            ("rebalance-begin", 1), ("rebalance-commit", 1),
            ("rebalance-begin", 2), ("rebalance-abort", 2),
        ]

    def test_replays_to_the_live_state(self, base_dataset, stream):
        """The fixture is this sequence, logged as it ran."""
        live = build_base(base_dataset)
        live.ingest(stream[:8], record_ids=range(300, 308))
        live.ingest(stream[8:14], record_ids=range(308, 314))
        pids = sorted(live.partitions)
        live.ingest(stream[14:18], record_ids=range(314, 318))
        assert rebalance_index(
            live, overflow_factor=1.0, partition_ids=pids
        ).partitions_split
        live.ingest(stream[18:22], record_ids=range(318, 322))
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, self.FIXTURE)
        assert (report.appends_applied, report.rebalances_replayed,
                report.rebalances_discarded, report.torn_tail) == (
            22, 1, 1, False)
        assert report.record_ids == list(range(300, 322))
        assert partition_state(fresh) == partition_state(live)
        fresh.validate()

    def test_appending_to_a_v1_log_raises(self, tmp_path):
        path = tmp_path / "old.wal"
        path.write_bytes(self.FIXTURE.read_bytes())
        with pytest.raises(WalError, match="replay it, then start a new log"):
            WriteAheadLog(path)
        assert path.read_bytes() == self.FIXTURE.read_bytes()


class TestReplay:
    def test_replay_appends_matches_live(self, tmp_path, base_dataset, stream):
        live = build_base(base_dataset)
        path = tmp_path / "replay.wal"
        with WriteAheadLog(path) as wal:
            append(live, wal, stream)
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, path)
        assert report.appends_applied == len(stream)
        assert fresh.n_records == live.n_records
        fresh.validate()
        for row in stream:
            assert (
                exact_match(fresh, row).record_ids
                == exact_match(live, row).record_ids
            )

    def test_begin_without_commit_is_discarded(
        self, tmp_path, base_dataset, stream
    ):
        live = build_base(base_dataset)
        path = tmp_path / "dangling.wal"
        with WriteAheadLog(path) as wal:
            append(live, wal, stream[:6])
            # A crash between begin and commit leaves this marker with
            # nothing after it; replay must land on the pre-split state.
            wal.log_rebalance_begin(1, 1.5, sorted(live.partitions))
        fresh = build_base(base_dataset)
        report = replay_wal(fresh, path)
        assert report.rebalances_discarded == 1
        assert report.rebalances_replayed == 0
        assert sorted(fresh.partitions) == sorted(live.partitions)
        fresh.validate()

    def test_dangling_begins_of_earlier_lives_are_discarded(
        self, tmp_path, base_dataset, stream
    ):
        """Every server life appends to one log and numbers its cycles
        from 1: two lives crash with begin(1) open, a third commits its
        cycle 1.  Both dangling begins count as discarded, and the state
        is the live one."""
        live = build_base(base_dataset)
        path = tmp_path / "lives.wal"
        for life in range(3):
            with WriteAheadLog(path) as wal:
                append(live, wal, stream[6 * life:6 * life + 6])
                pids = sorted(live.partitions)
                wal.log_rebalance_begin(1, 1.0, pids)
                if life == 2:
                    split = rebalance_index(
                        live, overflow_factor=1.0, partition_ids=pids
                    )
                    assert split.partitions_split
                    wal.log_rebalance_commit(1)
                    append(live, wal, stream[18:24])
        fresh, reference = build_base(base_dataset), build_base(base_dataset)
        report = replay_wal(fresh, path)
        assert report == replay_row_by_row(reference, path)
        assert report.appends_applied == 24
        assert (report.rebalances_replayed, report.rebalances_discarded) == (
            1, 2
        )
        assert partition_state(fresh) == partition_state(live)
        fresh.validate()


def replay_row_by_row(index, path) -> WalReplayReport:
    """The reference replay: every append alone, in log order."""
    records, torn = read_wal(path)
    report = WalReplayReport(torn_tail=torn)
    begun = {}
    for doc in records:
        report.lines_read += 1
        kind = doc["kind"]
        if kind == "append":
            report.record_ids.append(index.insert_series(
                np.asarray(doc["series"]), record_id=doc["record_id"]
            ))
            report.appends_applied += 1
        elif kind == "rebalance-begin":
            report.rebalances_discarded += doc["cycle"] in begun
            begun[doc["cycle"]] = (doc["overflow_factor"], doc["partitions"])
        elif kind == "rebalance-commit":
            factor, pids = begun.pop(doc["cycle"])
            rebalance_index(index, overflow_factor=factor, partition_ids=pids)
            report.rebalances_replayed += 1
        elif kind == "rebalance-abort":
            report.rebalances_discarded += begun.pop(doc["cycle"], None) is not None
    report.rebalances_discarded += len(begun)
    return report


def partition_state(index) -> dict:
    return {
        pid: (
            p.block.record_ids.tolist(), p.block.values.tolist(),
            p.block.signatures.tolist(), p.block.symbols.tolist(),
            p.tree.version,
            sorted((n.signature, n.count, tuple(n.entries))
                   for n in p.tree.iter_nodes()),
            p.bloom.bits.tobytes(), p.bloom.n_items,
            sorted(p.region_prefixes), p.n_records,
        )
        for pid, p in index.partitions.items()
    }


class TestBatchedReplay:
    @pytest.mark.parametrize("run_rows", (3, None))
    def test_batched_replay_equals_row_by_row(
        self, tmp_path, monkeypatch, base_dataset, stream, run_rows
    ):
        """Appends on both sides of a committed split, an aborted cycle,
        a begin that never committed and a torn tail: runs of appends
        applied as batches land where one-at-a-time replay lands."""
        if run_rows is not None:  # also cut runs at the fixed length
            monkeypatch.setattr("repro.core.wal._REPLAY_RUN_ROWS", run_rows)
        live = build_base(base_dataset)
        path = tmp_path / "mixed.wal"
        with WriteAheadLog(path) as wal:
            append(live, wal, stream[:14])
            pids = sorted(live.partitions)
            wal.log_rebalance_begin(1, 1.0, pids)
            append(live, wal, stream[14:18])  # lands between begin and commit
            split = rebalance_index(live, overflow_factor=1.0, partition_ids=pids)
            assert split.partitions_split
            wal.log_rebalance_commit(1)
            append(live, wal, stream[18:27])
            wal.log_rebalance_begin(2, 1.0, sorted(live.partitions))
            wal.log_rebalance_abort(2, "stale")
            append(live, wal, stream[27:33])
            wal.log_rebalance_begin(3, 1.0, sorted(live.partitions))
            append(live, wal, stream[33:38])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"append","record_id":777,"series":[0.5,')
        batched, reference = build_base(base_dataset), build_base(base_dataset)
        got = replay_wal(batched, path)
        want = replay_row_by_row(reference, path)
        assert got == want
        assert got.appends_applied == 38 and got.torn_tail
        assert got.record_ids == list(range(300, 338))
        assert (got.rebalances_replayed, got.rebalances_discarded) == (1, 2)
        assert partition_state(batched) == partition_state(reference)
        assert partition_state(batched) == partition_state(live)
        assert batched.n_records == live.n_records == 338
        batched.validate()
        for row in stream[:38]:
            assert (
                exact_match(batched, row).record_ids
                == exact_match(live, row).record_ids
            )
