"""Tests for index save/load round-tripping."""

import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import exact_match, knn_multi_partitions_access
from repro.core.persistence import load_index, save_index


@pytest.fixture(scope="module")
def reloaded(tardis_small, tmp_path_factory):
    path = tmp_path_factory.mktemp("index") / "tardis"
    save_index(tardis_small, path)
    return load_index(path)


class TestRoundTrip:
    def test_metadata_preserved(self, tardis_small, reloaded):
        assert reloaded.n_records == tardis_small.n_records
        assert reloaded.series_length == tardis_small.series_length
        assert reloaded.dataset_name == tardis_small.dataset_name
        assert reloaded.clustered == tardis_small.clustered
        assert reloaded.config == tardis_small.config

    def test_partitions_preserved(self, tardis_small, reloaded):
        assert set(reloaded.partitions) == set(tardis_small.partitions)
        for pid in tardis_small.partitions:
            assert (
                reloaded.partitions[pid].n_records
                == tardis_small.partitions[pid].n_records
            )

    def test_all_entries_preserved(self, tardis_small, reloaded):
        for pid, original in tardis_small.partitions.items():
            old = sorted((e[0], e[1]) for e in original.all_entries())
            new = sorted(
                (e[0], e[1]) for e in reloaded.partitions[pid].all_entries()
            )
            assert old == new

    def test_global_routing_identical(self, tardis_small, reloaded):
        for leaf in tardis_small.global_index.tree.leaves():
            # Extend the leaf signature arbitrarily to a full-cardinality
            # probe within its region.
            probe = leaf.signature + "0" * (
                (tardis_small.config.cardinality_bits - leaf.layer)
                * tardis_small.global_index.tree.per_plane
            )
            assert reloaded.global_index.route(probe) == (
                tardis_small.global_index.route(probe)
            )

    def test_exact_match_after_reload(self, reloaded, rw_small):
        for row in (0, 42, 2999):
            result = exact_match(reloaded, rw_small.values[row])
            assert row in result.record_ids

    def test_bloom_restored_bit_exactly(self, tardis_small, reloaded):
        for pid, original in tardis_small.partitions.items():
            restored = reloaded.partitions[pid]
            np.testing.assert_array_equal(
                original.bloom.bits, restored.bloom.bits
            )
            assert original.bloom.n_hashes == restored.bloom.n_hashes

    def test_knn_results_match(self, tardis_small, reloaded, heldout_queries):
        for q in heldout_queries[:5]:
            a = knn_multi_partitions_access(tardis_small, q, 10)
            b = knn_multi_partitions_access(reloaded, q, 10)
            assert a.record_ids == b.record_ids


class TestLongSignatures:
    def test_roundtrip_preserves_signatures_longer_than_64_chars(
        self, tmp_path
    ):
        """Regression: a fixed ``U64`` dtype silently truncated signatures.

        ``word_length=32, cardinality_bits=9`` produces 72-char iSAX-T
        signatures; after a save/load cycle every entry signature, region
        prefix, and exact-match answer must survive unchanged.
        """
        from repro.core import TardisConfig, build_tardis_index, exact_match
        from repro.tsdb import random_walk

        dataset = random_walk(300, length=128, seed=11).z_normalized()
        config = TardisConfig(
            word_length=32, cardinality_bits=9, g_max_size=80, l_max_size=16
        )
        index = build_tardis_index(dataset, config)
        long_sigs = [
            e[0]
            for p in index.partitions.values()
            for e in p.all_entries()
            if len(e[0]) > 64
        ]
        assert long_sigs, "config must produce >64-char signatures"

        save_index(index, tmp_path / "long")
        back = load_index(tmp_path / "long")
        for pid, original in index.partitions.items():
            old = sorted((e[0], e[1]) for e in original.all_entries())
            new = sorted((e[0], e[1]) for e in back.partitions[pid].all_entries())
            assert old == new
            assert original.region_prefixes == back.partitions[pid].region_prefixes
        for row in (0, 150, 299):
            assert row in exact_match(back, dataset.values[row]).record_ids


class TestUnclusteredAndErrors:
    def test_unclustered_roundtrip(self, rw_small, small_config, tmp_path):
        from repro.core import build_tardis_index

        index = build_tardis_index(rw_small, small_config, clustered=False)
        save_index(index, tmp_path / "uncl")
        back = load_index(tmp_path / "uncl")
        assert not back.clustered
        assert back.n_records == index.n_records
        some = next(iter(back.partitions.values()))
        assert all(e[2] is None for e in some.all_entries())

    def test_version_check(self, tardis_small, tmp_path):
        import json

        save_index(tardis_small, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format version"):
            load_index(tmp_path / "idx")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "nope")


class TestCorruption:
    def test_corrupt_partition_file_raises(self, tardis_small, tmp_path):
        save_index(tardis_small, tmp_path / "idx")
        victim = sorted((tmp_path / "idx" / "partitions").glob("p*.part"))[0]
        victim.write_bytes(b"not a partition file")
        with pytest.raises(ValueError, match=victim.name):
            load_index(tmp_path / "idx")

    def test_missing_global_index_raises(self, tardis_small, tmp_path):
        save_index(tardis_small, tmp_path / "idx")
        (tmp_path / "idx" / "global_index.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "idx")


# ---------------------------------------------------------------------------
# format 3: byte-plane codec, stale partitions, format-2 compatibility


def _state(index):
    """Everything a save/load must carry, in comparable form."""
    parts = []
    for pid, partition in index.partitions.items():
        block, tree = partition.block, partition.tree
        nodes = [
            (node.signature, node.layer, node.count, list(node.entries),
             list(node.children))
            for node in tree.iter_nodes()
        ]
        parts.append((
            pid, partition.n_records, partition.nbytes, partition.clustered,
            block.record_ids.tolist(), block.signatures.tolist(),
            block.signatures.dtype.str, block.symbols.tolist(),
            None if block.values is None
            else block.values.view(np.uint64).tolist(),
            nodes, tree.version,
            partition.bloom.bits.tobytes(), partition.bloom.n_items,
            sorted(partition.region_prefixes),
        ))
    return index.n_records, parts


def _logical(index):
    """:func:`_state` up to row numbering.  A save writes the live rows in
    tree order and a load re-indexes them as rows ``0..m-1``, so a
    reloaded block is a permutation of the saved one."""
    parts = []
    for pid, partition in index.partitions.items():
        block, tree = partition.block, partition.tree
        rid = block.record_ids
        nodes = sorted(
            (node.signature, node.layer, node.count,
             sorted(rid[node.entries].tolist()))
            for node in tree.iter_nodes()
        )
        live = partition.entries_under(tree.root)
        records = sorted(
            (int(rid[row]), str(block.signatures[row]),
             None if block.values is None
             else block.values[row].view(np.uint64).tolist())
            for row in live
        )
        parts.append((
            pid, partition.n_records, partition.nbytes, partition.clustered,
            nodes, records, partition.bloom.bits.tobytes(),
            partition.bloom.n_items, sorted(partition.region_prefixes),
        ))
    return index.n_records, parts


def _string_array_v2(strings) -> np.ndarray:
    strings = list(strings)
    width = max((len(s) for s in strings), default=1)
    return np.array(strings, dtype=f"U{max(1, width)}")


def _save_format2(index, path):
    """The format-2 layout: one deflated ``values`` member per partition."""
    import json

    save_index(index, path)
    meta_path = path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 2
    meta.pop("files")
    meta_path.write_text(json.dumps(meta, indent=2))
    root = path
    for file in (root / "partitions").glob("p*.part"):
        file.unlink()
    for pid, partition in index.partitions.items():
        entries = partition.all_entries()
        signatures = _string_array_v2(e[0] for e in entries)
        rids = np.array([e[1] for e in entries], dtype=np.int64)
        if index.clustered and entries:
            values = np.vstack([e[2] for e in entries])
        else:
            values = np.zeros((0, index.series_length))
        np.savez_compressed(
            root / "partitions" / f"p{pid:05d}.npz",
            signatures=signatures,
            record_ids=rids,
            values=values,
            region_prefixes=_string_array_v2(sorted(partition.region_prefixes)),
            bloom_bits=partition.bloom.bits,
            bloom_geometry=np.array(
                [partition.bloom.n_bits, partition.bloom.n_hashes,
                 partition.bloom.n_items],
                dtype=np.int64,
            ),
            nbytes=np.array([partition.nbytes], dtype=np.int64),
        )


def _small_index(n, seed=5, **kw):
    from repro.core import TardisConfig, build_tardis_index
    from repro.tsdb import random_walk

    dataset = random_walk(n, length=32, seed=seed).z_normalized()
    config = TardisConfig(g_max_size=300, l_max_size=30)
    return build_tardis_index(dataset, config, **kw), dataset


class TestByteplaneCodec:
    def test_special_values_round_trip_bit_exactly(self, tmp_path):
        from repro.core.persistence import _join_planes, _split_planes

        nan_payload = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64)
        special = np.array([
            -0.0, 0.0, np.inf, -np.inf, np.nan,
            nan_payload.view(np.float64)[0],
            5e-324, -5e-324, 2.2250738585072009e-308,
            np.finfo(np.float64).max, -np.finfo(np.float64).max,
            np.finfo(np.float64).tiny, 1.0, -1.5, np.pi,
        ])
        values = np.tile(special, (3, 1))
        values[1] = special[::-1]
        _write_members(tmp_path / "p.npz", dict(zip(
            ("values_low", "values_high"), _split_planes(values)
        )))
        with np.load(tmp_path / "p.npz", allow_pickle=False) as payload:
            assert sorted(payload.files) == ["values_high", "values_low"]
            back = _join_planes(payload["values_low"], payload["values_high"])
        assert back.dtype == np.float64 and back.shape == values.shape
        np.testing.assert_array_equal(
            back.view(np.uint64), values.view(np.uint64)
        )

    def test_partition_file_layout(self, tardis_small, tmp_path):
        from repro.core.persistence import (
            _COLUMNS, _HEADER_BYTES, _SECTIONS, _parse_header,
        )

        save_index(tardis_small, tmp_path / "idx")
        file = tmp_path / "idx" / "partitions" / "p00000.part"
        raw = file.read_bytes()
        rows = _parse_header(raw[:_HEADER_BYTES], file)
        assert list(rows) == list(_SECTIONS + _COLUMNS)
        # The sections lie back to back after the header, to the end.
        at = _HEADER_BYTES
        for name in _SECTIONS:
            _dtype, _shape, offset, nbytes, crc = rows[name]
            assert offset == at and zlib.crc32(raw[at:at + nbytes]) == crc
            at += nbytes
        assert at == len(raw)
        n_rows = rows["record_ids"][1][0]
        length = tardis_small.series_length
        dtype, shape, offset, nbytes, _crc = rows["values_low"]
        assert dtype == np.uint8 and shape == (n_rows, length, 6)
        # Stored raw: the section is the low bytes of the values.
        partition = tardis_small.partitions[0]
        values = partition.block.values[
            partition.entries_under(partition.tree.root)
        ]
        low = np.frombuffer(raw, np.uint8, nbytes, offset).reshape(shape)
        assert low.tobytes() == np.ascontiguousarray(
            values.view(np.uint8).reshape(n_rows, length, 8)[..., :6]
        ).tobytes()
        _dtype, _shape, offset, nbytes, _crc = rows["values_high"]
        high = zlib.decompress(raw[offset:offset + nbytes], -zlib.MAX_WBITS)
        assert len(high) == 2 * n_rows * length
        _dtype, _shape, offset, nbytes, _crc = rows["columns"]
        columns = zlib.decompress(raw[offset:offset + nbytes], -zlib.MAX_WBITS)
        dtype, shape, offset, nbytes, _crc = rows["signatures"]
        assert dtype.kind == "S" and shape == (n_rows,)
        assert np.frombuffer(columns, dtype, n_rows, offset).astype(
            str).tolist() == partition.block.signatures[
            partition.entries_under(partition.tree.root)].tolist()

    def test_saves_are_reproducible_across_clock_ticks(
        self, tardis_small, tmp_path, monkeypatch
    ):
        import time

        real_time = time.time
        for name, offset in (("first", 0.0), ("second", 86400.0 + 2.0)):
            monkeypatch.setattr(time, "time", lambda: real_time() + offset)
            save_index(tardis_small, tmp_path / name)
        monkeypatch.setattr(time, "time", real_time)
        first = sorted((tmp_path / "first").rglob("*"))
        second = sorted((tmp_path / "second").rglob("*"))
        assert [p.relative_to(tmp_path / "first") for p in first] == [
            p.relative_to(tmp_path / "second") for p in second
        ]
        for a, b in zip(first, second):
            if a.is_file():
                assert a.read_bytes() == b.read_bytes(), a.name

    def test_reload_is_the_built_state(self, tardis_small, tmp_path):
        save_index(tardis_small, tmp_path / "idx")
        assert _logical(load_index(tmp_path / "idx")) == _logical(tardis_small)

    def test_unclustered_round_trip(self, tmp_path):
        index, _data = _small_index(600, clustered=False)
        save_index(index, tmp_path / "idx")
        back = load_index(tmp_path / "idx")
        assert _logical(back) == _logical(index)
        assert all(p.block.values is None for p in back.partitions.values())

    def test_empty_partition_round_trips(self, tmp_path):
        index, data = _small_index(600)
        pid, victim = min(
            index.partitions.items(), key=lambda item: item[1].n_records
        )
        for rid in victim.block.record_ids.tolist():
            assert index.delete_series(data.values[rid], rid)
        assert victim.n_records == 0 and victim.block.n_rows > 0
        save_index(index, tmp_path / "idx")
        back = load_index(tmp_path / "idx")
        back.validate()
        empty = back.partitions[pid]
        assert empty.n_records == 0 and empty.tree.root.count == 0
        assert empty.block.values.shape == (0, index.series_length)
        save_index(back, tmp_path / "again")
        assert _logical(load_index(tmp_path / "again")) == _logical(back)

    def test_format2_directory_loads_like_format3(self, tmp_path):
        index, _data = _small_index(600)
        _save_format2(index, tmp_path / "v2")
        _save_format3(index, tmp_path / "v3")
        with np.load(tmp_path / "v2" / "partitions" / "p00000.npz") as payload:
            assert "values" in payload.files
        old, new = load_index(tmp_path / "v2"), load_index(tmp_path / "v3")
        assert _state(old) == _state(new)
        # ... and the format-2 load, re-saved, is the format-3 load
        # re-saved.
        save_index(old, tmp_path / "v2v3")
        save_index(new, tmp_path / "v3v3")
        assert _state(load_index(tmp_path / "v2v3")) == _state(
            load_index(tmp_path / "v3v3")
        )


#: Modification time of every format-4 archive member: the zip epoch.
_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def _write_members(file, members: dict) -> None:
    """One ``.npz`` of ``.npy`` members as the format-4 writer made it:
    ``values_low`` and ``values_high`` stored, the rest deflated, every
    member stamped with the zip epoch."""
    import io
    import zipfile

    with zipfile.ZipFile(file, "w") as archive:
        for name, array in members.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, array, allow_pickle=False)
            member = zipfile.ZipInfo(f"{name}.npy", _MEMBER_DATE_TIME)
            member.external_attr = 0o600 << 16  # what a bare name gets
            archive.writestr(
                member, buffer.getvalue(),
                compress_type=(
                    zipfile.ZIP_STORED
                    if name in ("values_low", "values_high")
                    else zipfile.ZIP_DEFLATED
                ),
            )


def _save_format4(index, path):
    """The format-4 layout, as its writer saved it: ``meta.json`` first,
    then ``global_index.json``, then one zip of ``.npy`` members per
    partition (``data/index_v4`` was saved by that writer, and this one
    reproduces its bytes)."""
    import json

    from repro.core.persistence import (
        _deflate_high, _split_planes, _string_array,
    )

    save_index(index, path)
    meta = json.loads((path / "meta.json").read_text())
    meta["format_version"] = 4
    meta.pop("files")
    (path / "meta.json").write_text(json.dumps(meta, indent=2))
    for file in (path / "partitions").glob("p*.part"):
        file.unlink()
    for pid, partition in index.partitions.items():
        rows = partition.entries_under(partition.tree.root)
        block = partition.block
        if index.clustered and len(rows):
            values = block.values[rows]
        else:
            values = np.zeros((0, index.series_length))
        values_low, values_high = _split_planes(values)
        _write_members(path / "partitions" / f"p{pid:05d}.npz", {
            "signatures": _string_array(block.signatures[rows], "S"),
            "record_ids": block.record_ids[rows],
            "values_low": values_low,
            "values_high": _deflate_high(values_high),
            "region_prefixes": _string_array(sorted(partition.region_prefixes)),
            "bloom_bits": partition.bloom.bits,
            "bloom_geometry": np.array(
                [partition.bloom.n_bits, partition.bloom.n_hashes,
                 partition.bloom.n_items],
                dtype=np.int64,
            ),
            "nbytes": np.array([partition.nbytes], dtype=np.int64),
        })


def _save_format3(index, path):
    """The format-3 layout: unicode ``signatures`` and the two high
    planes as a ``(2, m, n)`` member the zip deflates."""
    import json

    _save_format4(index, path)
    meta = json.loads((path / "meta.json").read_text())
    meta["format_version"] = 3
    (path / "meta.json").write_text(json.dumps(meta, indent=2))
    for file in (path / "partitions").glob("p*.npz"):
        with np.load(file, allow_pickle=False) as payload:
            members = {name: payload[name] for name in payload.files}
        m, n = members["values_low"].shape[:2]
        members["values_high"] = np.frombuffer(
            zlib.decompress(members["values_high"], -zlib.MAX_WBITS),
            dtype=np.uint8,
        ).reshape(2, m, n)
        members["signatures"] = members["signatures"].astype(str)
        np.savez_compressed(file, **members)


def _full_state(index):
    """:func:`_state`, plus what it leaves out: Bloom geometry and
    Tardis-G."""
    geometry = sorted(
        (pid, p.bloom.n_bits, p.bloom.n_hashes)
        for pid, p in index.partitions.items()
    )
    return _state(index), geometry, _global_nodes(index)


#: Bit patterns a float64 codec must carry: ±0, ±inf, quiet and
#: signalling NaNs with payloads, subnormals, the extremes.
_SPECIAL_BITS = [
    0x0000_0000_0000_0000, 0x8000_0000_0000_0000,
    0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
    0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0001,
    0x7FF8_0000_DEAD_BEEF, 0x7FF0_0000_0000_0001,
    0x0000_0000_0000_0001, 0x800F_FFFF_FFFF_FFFF,
    0x0010_0000_0000_0000, 0x7FEF_FFFF_FFFF_FFFF,
    0x3FF0_0000_0000_0000, 0xBFF8_0000_0000_0000,
]


class TestFormat4:
    """Format 4 carries exactly what format 3 did: ASCII signatures and
    one run-length deflate stream of the high planes decode to the same
    arrays, and a format-3 directory still loads."""

    FIXTURE = Path(__file__).parent / "data" / "index_v3"

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 6), st.integers(1, 7)),
        data=st.data(),
    )
    @example(shape=(0, 5), data=None)
    def test_planes_round_trip_any_bit_pattern(self, shape, data):
        from repro.core.persistence import (
            _deflate_high, _join_planes, _read_values, _split_planes,
        )

        m, n = shape
        bits = [] if data is None else data.draw(st.lists(
            st.one_of(
                st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1)
            ),
            min_size=m * n, max_size=m * n,
        ))
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values.reshape(m, n)
        low, high = _split_planes(values)
        assert low.shape == (m, n, 6) and high.shape == (2, m, n)
        assert low.dtype == high.dtype == np.uint8
        for back in (
            _join_planes(low, high),
            _read_values(
                {"values_low": low, "values_high": _deflate_high(high)},
                4, "p.npz",
            ),
        ):
            assert back.dtype == np.float64 and back.shape == (m, n)
            assert back.view(np.uint64).tolist() == values.view(
                np.uint64).tolist()

    def test_committed_format3_index_loads_like_its_format4_resave(
        self, tmp_path
    ):
        """``data/index_v3`` was saved by the format-3 writer.  A save
        writes each tree's rows last child first, so a load reverses
        every child order: one format-4 round trip is the same index up
        to row and child order, and a second one is field for field the
        format-3 load."""
        import json

        def version(path):
            return json.loads((path / "meta.json").read_text())["format_version"]

        assert version(self.FIXTURE) == 3
        old = load_index(self.FIXTURE)
        old.validate()
        _save_format4(old, tmp_path / "once")
        assert version(tmp_path / "once") == 4
        once = load_index(tmp_path / "once")
        assert _logical(once) == _logical(old)
        assert sorted(_global_nodes(once)) == sorted(_global_nodes(old))
        _save_format4(once, tmp_path / "twice")
        assert _full_state(load_index(tmp_path / "twice")) == _full_state(old)
        pids = sorted(old.partitions)[1::2]
        assert _full_state(load_index(tmp_path / "twice", pids)) == (
            _full_state(load_index(self.FIXTURE, pids))
        )

    @pytest.mark.parametrize("clustered", [True, False])
    def test_format3_and_format4_saves_load_identically(
        self, tmp_path, clustered
    ):
        index, _data = _small_index(900, clustered=clustered)
        _save_format3(index, tmp_path / "v3")
        _save_format4(index, tmp_path / "v4")
        with np.load(tmp_path / "v3" / "partitions" / "p00000.npz") as v3:
            assert v3["signatures"].dtype.kind == "U"
            assert v3["values_high"].ndim == 3
        full = _full_state(load_index(tmp_path / "v3"))
        assert full == _full_state(load_index(tmp_path / "v4"))
        assert _logical(load_index(tmp_path / "v4")) == _logical(index)
        pids = sorted(index.partitions)[::2]
        assert _full_state(load_index(tmp_path / "v3", pids)) == (
            _full_state(load_index(tmp_path / "v4", pids))
        )

    @staticmethod
    def _rewrite_high(file, stream):
        """Replace ``file``'s ``values_high`` member, zip CRC and all."""
        with np.load(file, allow_pickle=False) as payload:
            members = {name: payload[name] for name in payload.files}
        members["values_high"] = stream(members["values_high"])
        _write_members(file, members)

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped", "short"])
    def test_damaged_stream_raises_value_error_naming_the_file(
        self, tardis_small, tmp_path, damage
    ):
        from repro.core.persistence import _deflate_high

        _save_format4(tardis_small, tmp_path / "idx")
        file = tmp_path / "idx" / "partitions" / "p00001.npz"
        if damage == "truncated":
            self._rewrite_high(file, lambda stream: stream[:len(stream) // 2])
        elif damage == "bit-flipped":
            # Bit 1 of the first byte is the low bit of the first block's
            # type: a dynamic-Huffman block (2) becomes the reserved 3, a
            # fixed one (1) a stored block whose lengths do not check.
            def flip(stream):
                stream = stream.copy()
                stream[0] ^= 0b010
                return stream
            self._rewrite_high(file, flip)
        else:  # a whole stream of one row too few
            def short(stream):
                raw = zlib.decompress(stream, -zlib.MAX_WBITS)
                high = np.frombuffer(raw, np.uint8).reshape(2, -1)
                n = tardis_small.series_length
                return _deflate_high(high[:, :-n])
            self._rewrite_high(file, short)
        with pytest.raises(ValueError, match="p00001.npz: values_high"):
            load_index(tmp_path / "idx")

    def test_bit_flip_on_disk_raises_value_error_naming_the_file(
        self, tardis_small, tmp_path
    ):
        import zipfile

        _save_format4(tardis_small, tmp_path / "idx")
        file = tmp_path / "idx" / "partitions" / "p00001.npz"
        with zipfile.ZipFile(file) as archive:
            info = archive.getinfo("values_high.npy")
        raw = bytearray(file.read_bytes())
        # Past the 30-byte local header, its name and extra field, and
        # into the stored member's body: the zip CRC no longer matches.
        at = info.header_offset + 30 + len(info.filename) + len(info.extra)
        raw[at + info.compress_size // 2] ^= 0x10
        file.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="p00001.npz: values_high"):
            load_index(tmp_path / "idx")


def _restamp(path):
    """Rewrite ``meta.json``'s file list for the files as they now are,
    as a save that wrote them would: what is left to refuse a damaged
    file is the file's own header."""
    import json

    from repro.core.persistence import _HEADER_BYTES

    meta = json.loads((path / "meta.json").read_text())
    for name, entry in meta["files"].items():
        data = (path / name).read_bytes()
        entry["bytes"] = len(data)
        key = "header_crc32" if name.startswith("partitions/") else "crc32"
        entry[key] = zlib.crc32(
            data[:_HEADER_BYTES] if key == "header_crc32" else data
        )
    (path / "meta.json").write_text(json.dumps(meta, indent=2))


class TestFormat5:
    """Format 5: one file of raw sections per partition, checked against
    ``meta.json`` and against its own header."""

    FIXTURES = {
        version: Path(__file__).parent / "data" / f"index_v{version}"
        for version in (3, 4)
    }

    @pytest.mark.parametrize("version", [3, 4])
    def test_committed_index_loads_like_its_format5_resaves(
        self, tmp_path, version
    ):
        """Either fixture, saved as format 5, loads field for field as it
        did (Bloom geometry and Tardis-G included), and a second format-5
        round trip writes the same bytes."""
        import json

        fixture = self.FIXTURES[version]
        meta = json.loads((fixture / "meta.json").read_text())
        assert meta["format_version"] == version
        old = load_index(fixture)
        old.validate()
        save_index(old, tmp_path / "once")
        once = load_index(tmp_path / "once")
        assert _full_state(once) == _full_state(old)
        save_index(once, tmp_path / "twice")
        for file in sorted((tmp_path / "once").rglob("*")):
            if file.is_file():
                name = file.relative_to(tmp_path / "once")
                assert (tmp_path / "twice" / name).read_bytes() == (
                    file.read_bytes()
                ), name

    def test_format4_writer_of_the_tests_is_the_one_that_was(self, tmp_path):
        """``_save_format4`` of the committed format-4 fixture writes its
        bytes back: the format-4 tests above run on what format 4 was."""
        fixture = self.FIXTURES[4]
        _save_format4(load_index(fixture), tmp_path / "v4")
        for file in sorted(fixture.rglob("*")):
            if file.is_file():
                name = file.relative_to(fixture)
                assert (tmp_path / "v4" / name).read_bytes() == (
                    file.read_bytes()
                ), name

    @staticmethod
    def _rewrite(file, edit):
        """Apply ``edit(rows, header, body) -> (header, body)`` to a
        format-5 file, with rows from :func:`_parse_header`."""
        from repro.core.persistence import _HEADER_BYTES, _parse_header

        raw = file.read_bytes()
        header, body = bytearray(raw[:_HEADER_BYTES]), bytearray(raw[_HEADER_BYTES:])
        header, body = edit(_parse_header(bytes(header), file), header, body)
        file.write_bytes(bytes(header) + bytes(body))

    @staticmethod
    def _set_row(header, at, name, shape, offset, nbytes, crc, dtype):
        from repro.core.persistence import _MAGIC, _ROW

        shape = tuple(shape) + (-1,) * (3 - len(shape))
        _ROW.pack_into(
            header, len(_MAGIC) + at * _ROW.size, name.encode(),
            dtype.str.encode(), *shape, offset, nbytes, crc,
        )

    @pytest.mark.parametrize("damage", [
        "truncated", "bit-flipped", "crc-flipped", "short-header", "garbage",
    ])
    @pytest.mark.parametrize("listed", [True, False])
    def test_damaged_file_raises_value_error_naming_it(
        self, tardis_small, tmp_path, damage, listed
    ):
        """Each damage is refused by ``meta.json``'s entry for the file
        (``listed``) and, with the entry re-stamped to match, by the
        file's own header."""
        from repro.core.persistence import _COLUMNS, _HEADER_BYTES, _SECTIONS

        save_index(tardis_small, tmp_path / "idx")
        file = tmp_path / "idx" / "partitions" / "p00001.part"
        order = _SECTIONS + _COLUMNS

        def edit(rows, header, body):
            if damage == "garbage":  # not a partition file at all
                return b"", b"not a partition file"
            if damage == "truncated":  # the last section, cut in half
                _dtype, _shape, offset, nbytes, _crc = rows["columns"]
                return header, body[:offset - _HEADER_BYTES + nbytes // 2]
            if damage == "bit-flipped":  # a byte of values_low
                _dtype, _shape, offset, nbytes, _crc = rows["values_low"]
                body[offset - _HEADER_BYTES + nbytes // 2] ^= 0x10
                return header, body
            if damage == "crc-flipped":  # values_high's CRC in the header
                dtype, shape, offset, nbytes, crc = rows["values_high"]
                self._set_row(
                    header, order.index("values_high"), "values_high",
                    shape, offset, nbytes, crc ^ 0x10, dtype,
                )
                return header, body
            # short-header: record ids claim one row fewer than stored
            dtype, shape, offset, nbytes, crc = rows["record_ids"]
            self._set_row(
                header, order.index("record_ids"), "record_ids",
                (shape[0] - 1,), offset, nbytes - dtype.itemsize, crc, dtype,
            )
            return header, body

        self._rewrite(file, edit)
        if not listed:
            _restamp(tmp_path / "idx")
        with pytest.raises(ValueError, match="p00001.part"):
            load_index(tmp_path / "idx")
        with pytest.raises(ValueError, match="p00001.part"):
            load_index(tmp_path / "idx", [1])
        assert load_index(tmp_path / "idx", [0, 2]).n_records > 0

    @pytest.mark.parametrize("damage", ["edited", "unlisted"])
    def test_damaged_global_index_raises_value_error_naming_it(
        self, tardis_small, tmp_path, damage
    ):
        import json

        save_index(tardis_small, tmp_path / "idx")
        if damage == "edited":
            doc = tmp_path / "idx" / "global_index.json"
            doc.write_text(doc.read_text().replace('"count": ', '"count":  ', 1))
        else:
            meta_path = tmp_path / "idx" / "meta.json"
            meta = json.loads(meta_path.read_text())
            del meta["files"]["global_index.json"]
            meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="global_index.json"):
            load_index(tmp_path / "idx")

    def test_torn_save_does_not_load_as_a_mix(self, tmp_path, monkeypatch):
        """A 3,000 x 64 index is saved and loaded, takes 200 more rows,
        and is saved again over the same directory by a writer that
        fails after the third partition file: the directory holds three
        new partition files beside five old ones, and is refused."""
        from repro.core import TardisConfig, build_tardis_index
        from repro.core import persistence
        from repro.tsdb import random_walk

        data = random_walk(3_200, length=64, seed=7).z_normalized()
        config = TardisConfig(g_max_size=400, l_max_size=40)
        save_index(
            build_tardis_index(data.subset(range(3_000)), config),
            tmp_path / "idx",
        )
        index = load_index(tmp_path / "idx")
        assert len(index.partitions) == 8
        index.ingest(data.values[3_000:])
        assert all(
            index.partitions[pid].n_records
            != load_index(tmp_path / "idx", [pid]).n_records
            for pid in range(3)
        )
        write = persistence._write_partition
        written = []

        def fail_after_three(file, columns):
            if len(written) == 3:
                raise OSError("disk gone")
            written.append(file.name)
            return write(file, columns)

        monkeypatch.setattr(persistence, "_write_partition", fail_after_three)
        with pytest.raises(OSError, match="disk gone"):
            save_index(index, tmp_path / "idx")
        monkeypatch.undo()
        assert written == ["p00000.part", "p00001.part", "p00002.part"]
        with pytest.raises(ValueError, match="p00000.part"):
            load_index(tmp_path / "idx")
        # Untouched files still load: they are the old save's.
        assert load_index(tmp_path / "idx", [5, 6, 7]).n_records > 0
        save_index(index, tmp_path / "idx")
        back = load_index(tmp_path / "idx")
        back.validate()
        assert back.n_records == 3_200

    def test_loaded_columns_own_their_memory(self, tmp_path):
        """No loaded column is a view of a file buffer: each one owns its
        memory or is a column buffer's mapping."""
        import mmap

        index, _data = _small_index(3_000)
        save_index(index, tmp_path / "idx")
        for partition in load_index(tmp_path / "idx").partitions.values():
            block = partition.block
            for column in (
                block.values, block.record_ids, block.signatures,
                partition.bloom.bits,
            ):
                base = column
                while isinstance(base, np.ndarray) and base.base is not None:
                    base = base.base
                if isinstance(base, memoryview):
                    base = base.obj
                assert isinstance(base, (np.ndarray, mmap.mmap)), type(base)
                assert not isinstance(base, np.ndarray) or base.flags.owndata

    def test_a_format4_directory_saved_over_keeps_no_archive(self, tmp_path):
        index, _data = _small_index(600)
        _save_format4(index, tmp_path / "d")
        save_index(index, tmp_path / "d")
        names = {f.suffix for f in (tmp_path / "d" / "partitions").iterdir()}
        assert names == {".part"}
        assert _state(load_index(tmp_path / "d")) == _state(
            load_index(tmp_path / "d", sorted(index.partitions))
        )


class TestCommittedFormat4:
    """``data/index_v4`` was saved by the format-4 writer from the build
    below, so a save of that build today loads field for field as the
    fixture does."""

    FIXTURE = Path(__file__).parent / "data" / "index_v4"

    @staticmethod
    def build():
        from repro.core import TardisConfig, build_tardis_index
        from repro.tsdb import random_walk

        dataset = random_walk(300, length=32, seed=4).z_normalized()
        config = TardisConfig(
            word_length=8, cardinality_bits=6, g_max_size=100, l_max_size=12
        )
        return build_tardis_index(dataset, config)

    def test_a_save_of_the_same_build_loads_like_the_fixture(self, tmp_path):
        import json

        meta = json.loads((self.FIXTURE / "meta.json").read_text())
        assert meta["format_version"] == 4
        fixture = load_index(self.FIXTURE)
        fixture.validate()
        save_index(self.build(), tmp_path / "now")
        assert _full_state(load_index(tmp_path / "now")) == _full_state(fixture)


class TestStalePartitions:
    def test_smaller_index_saved_over_larger_loads_alone(self, tmp_path):
        big, _data = _small_index(3000)
        small, _data = _small_index(600, seed=6)
        assert len(big.partitions) > len(small.partitions) > 1
        save_index(big, tmp_path / "d")
        save_index(small, tmp_path / "d")
        files = sorted((tmp_path / "d" / "partitions").glob("p*"))
        assert len(files) == len(small.partitions)
        back = load_index(tmp_path / "d")
        back.validate()
        assert back.n_records == 600
        save_index(small, tmp_path / "fresh")
        assert _state(back) == _state(load_index(tmp_path / "fresh"))

    def test_stray_partition_file_is_refused(self, tardis_small, tmp_path):
        save_index(tardis_small, tmp_path / "idx")
        partitions = tmp_path / "idx" / "partitions"
        (partitions / "p00999.part").write_bytes(
            (partitions / "p00000.part").read_bytes()
        )
        with pytest.raises(ValueError, match="stray \\[999\\]"):
            load_index(tmp_path / "idx")

    def test_missing_partition_file_is_refused(self, tardis_small, tmp_path):
        save_index(tardis_small, tmp_path / "idx")
        (tmp_path / "idx" / "partitions" / "p00001.part").unlink()
        with pytest.raises(ValueError, match="missing \\[1\\]"):
            load_index(tmp_path / "idx")


def _global_nodes(index):
    return [
        (node.signature, node.count, node.partition_id)
        for node in index.global_index.tree.iter_nodes()
    ]


class TestHostedLoad:
    """``load_index(d, ids)`` — what a shard process loads — is
    ``subset_index(load_index(d), ids)`` without reading the other
    partitions."""

    @pytest.fixture()
    def saved(self, tardis_small, tmp_path):
        save_index(tardis_small, tmp_path / "idx")
        pids = sorted(tardis_small.partitions)
        assert len(pids) >= 4
        return tmp_path / "idx", pids[1::2]

    def test_equals_subset_of_full_load(self, saved, heldout_queries):
        from repro.core.queries import (
            RunningTopK, knn_target_node_access, query_signature,
            scan_partitions,
        )
        from repro.sharding import subset_index

        path, hosted = saved
        full = load_index(path)
        part = load_index(path, hosted)
        sub = subset_index(full, hosted)
        assert sorted(part.partitions) == hosted
        assert _state(part) == _state(sub)
        assert part.n_records == sub.n_records < full.n_records
        assert _global_nodes(part) == _global_nodes(sub)
        assert (part.config, part.dataset_name, part.series_length,
                part.clustered) == (sub.config, sub.dataset_name,
                                    sub.series_length, sub.clustered)

        def answers(index, query):
            """The hosted slice of an MPA scatter (seeded when the home
            partition is hosted) and, then, target-node access."""
            signature, paa = query_signature(index, query)
            home = index.global_index.route(signature)
            seeded = home in hosted
            scan = scan_partitions(
                index, query, signature, paa, 10, hosted,
                home_pid=home if seeded else None,
            )
            top = RunningTopK(10) if scan.seed is None else scan.seed
            top.refine(query, scan.found)
            out = [
                [(n.distance, n.record_id) for n in top.neighbors()],
                scan.loaded, scan.missing, scan.threshold, scan.candidates,
                scan.refined, top.scored,
            ]
            if seeded:
                tna = knn_target_node_access(index, query, 10)
                out += [[(n.distance, n.record_id) for n in tna.neighbors],
                        tna.candidates_examined, tna.nodes_visited]
            return seeded, out

        seeded = 0
        for query in heldout_queries:
            got = answers(part, query)
            assert got == answers(sub, query)
            seeded += got[0]
        assert seeded > 0

    def test_reads_only_the_hosted_files(self, saved):
        path, hosted = saved
        reference = _state(load_index(path, hosted))
        for file in (path / "partitions").glob("p*.part"):
            if int(file.stem[1:]) not in hosted:
                file.write_bytes(b"not a partition file")
        assert _state(load_index(path, hosted)) == reference
        with pytest.raises(Exception):
            load_index(path)

    def test_unknown_id_raises_key_error(self, saved):
        path, hosted = saved
        with pytest.raises(KeyError, match="999"):
            load_index(path, hosted + [999])

    def test_stray_file_is_refused_for_a_subset(self, saved):
        path, hosted = saved
        partitions = path / "partitions"
        (partitions / "p00999.part").write_bytes(
            (partitions / f"p{hosted[0]:05d}.part").read_bytes()
        )
        with pytest.raises(ValueError, match="stray \\[999\\]"):
            load_index(path, hosted)

    def test_missing_file_is_refused_for_a_subset(self, saved):
        path, hosted = saved
        absent = next(
            int(f.stem[1:]) for f in sorted((path / "partitions").glob("p*"))
            if int(f.stem[1:]) not in hosted
        )
        (path / "partitions" / f"p{absent:05d}.part").unlink()
        with pytest.raises(ValueError, match=f"missing \\[{absent}\\]"):
            load_index(path, hosted)
