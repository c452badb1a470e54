"""Tests for index save/load round-tripping."""

import numpy as np
import pytest

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
        victim = sorted((tmp_path / "idx" / "partitions").glob("p*.npz"))[0]
        victim.write_bytes(b"not an npz archive")
        with pytest.raises(Exception):
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
    meta_path.write_text(json.dumps(meta, indent=2))
    root = path
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
        from repro.core.persistence import (
            _join_planes, _split_planes, _write_members,
        )

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
        import zipfile

        save_index(tardis_small, tmp_path / "idx")
        file = tmp_path / "idx" / "partitions" / "p00000.npz"
        with zipfile.ZipFile(file) as archive:
            methods = {
                info.filename: info.compress_type
                for info in archive.infolist()
            }
        assert methods.pop("values_low.npy") == zipfile.ZIP_STORED
        assert set(methods.values()) == {zipfile.ZIP_DEFLATED}
        with np.load(file, allow_pickle=False) as payload:
            low, high = payload["values_low"], payload["values_high"]
            n_rows = len(payload["record_ids"])
        length = tardis_small.series_length
        assert low.shape == (n_rows, length, 6) and low.dtype == np.uint8
        assert high.shape == (2, n_rows, length) and high.dtype == np.uint8

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
        save_index(index, tmp_path / "v3")
        with np.load(tmp_path / "v2" / "partitions" / "p00000.npz") as payload:
            assert "values" in payload.files
        old, new = load_index(tmp_path / "v2"), load_index(tmp_path / "v3")
        assert _state(old) == _state(new)
        # ... and the format-2 load, re-saved as format 3, is the
        # format-3 load re-saved.
        save_index(old, tmp_path / "v2v3")
        save_index(new, tmp_path / "v3v3")
        assert _state(load_index(tmp_path / "v2v3")) == _state(
            load_index(tmp_path / "v3v3")
        )


class TestStalePartitions:
    def test_smaller_index_saved_over_larger_loads_alone(self, tmp_path):
        big, _data = _small_index(3000)
        small, _data = _small_index(600, seed=6)
        assert len(big.partitions) > len(small.partitions) > 1
        save_index(big, tmp_path / "d")
        save_index(small, tmp_path / "d")
        files = sorted((tmp_path / "d" / "partitions").glob("p*.npz"))
        assert len(files) == len(small.partitions)
        back = load_index(tmp_path / "d")
        back.validate()
        assert back.n_records == 600
        save_index(small, tmp_path / "fresh")
        assert _state(back) == _state(load_index(tmp_path / "fresh"))

    def test_stray_partition_file_is_refused(self, tardis_small, tmp_path):
        save_index(tardis_small, tmp_path / "idx")
        partitions = tmp_path / "idx" / "partitions"
        (partitions / "p00999.npz").write_bytes(
            (partitions / "p00000.npz").read_bytes()
        )
        with pytest.raises(ValueError, match="stray \\[999\\]"):
            load_index(tmp_path / "idx")

    def test_missing_partition_file_is_refused(self, tardis_small, tmp_path):
        save_index(tardis_small, tmp_path / "idx")
        (tmp_path / "idx" / "partitions" / "p00001.npz").unlink()
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
        for file in (path / "partitions").glob("p*.npz"):
            if int(file.stem[1:]) not in hosted:
                file.write_bytes(b"not a zip archive")
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
        (partitions / "p00999.npz").write_bytes(
            (partitions / f"p{hosted[0]:05d}.npz").read_bytes()
        )
        with pytest.raises(ValueError, match="stray \\[999\\]"):
            load_index(path, hosted)

    def test_missing_file_is_refused_for_a_subset(self, saved):
        path, hosted = saved
        absent = next(
            int(f.stem[1:]) for f in sorted((path / "partitions").glob("p*"))
            if int(f.stem[1:]) not in hosted
        )
        (path / "partitions" / f"p{absent:05d}.npz").unlink()
        with pytest.raises(ValueError, match=f"missing \\[{absent}\\]"):
            load_index(path, hosted)
