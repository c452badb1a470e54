"""Index persistence: save/load a built TARDIS index to a directory.

The on-disk layout mirrors the logical deployment (one file per
partition, one file for the master-resident global index) and uses only
JSON + ``.npz`` so archives are inspectable and robust across Python
versions — no pickle.

::

    index_dir/
      meta.json             # config, dataset identity, counts
      global_index.json     # sigTree nodes: signature, count, pid
      partitions/
        p00000.npz          # one zip of .npy members per partition:
                            #   signatures (m,) ASCII "S", record_ids,
                            #   region_prefixes, bloom_bits,
                            #   bloom_geometry, nbytes (deflated)
                            #   values_low  (m, n, 6) uint8, stored raw
                            #   values_high (k,) uint8, stored: a raw
                            #     deflate stream of (2, m, n) bytes

Format 4 stores a partition's ``(m, n)`` float64 value matrix as byte
planes of its little-endian bytes.  The six low-order planes are
mantissa noise that no compressor shrinks, so ``values_low`` is written
uncompressed; the two high-order planes (sign, exponent, top mantissa
bits) are where the redundancy is: they are nearly constant along a
series, so ``values_high`` holds them plane-major as one raw deflate
stream made with ``Z_RLE`` at level 1 (a zip member cannot choose the
strategy, so the stream is a stored uint8 member).  A load inflates it
and checks it against the ``2 · m · n`` bytes the ``values_low`` shape
implies.  Both halves move through one structured view of the float64
matrix (:data:`_PLANES`), written in place, with no full-size
temporaries.  Signatures are hex, so they are saved as ASCII and widened
back to the unicode the block holds.  Format 3 (unicode signatures, a
``(2, m, n)`` ``values_high`` deflated by the zip) and format 2 (one
deflated ``values`` member) are still read.

A save writes one file per partition and removes any other ``p*.npz``
left in the directory, so a smaller index saved over a larger one does
not inherit its partitions; a load refuses a directory whose partition
files are not exactly the partitions Tardis-G references — also when it
is asked for only some of them, as a shard process asks for the
partitions it hosts and reads no other partition file.  Local
sigTrees are rebuilt from the stored rows by one
:meth:`SigTree.bulk_load` (the tree row-by-row inserts would build);
Bloom filters are restored bit-exactly, so the no-false-negative
guarantee carries over without re-hashing.
"""

from __future__ import annotations

import io
import json
import logging
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..bloom import BloomFilter
from .builder import TardisIndex
from .columnar import ColumnarBlock, column_buffer
from .config import TardisConfig
from .global_index import TardisGlobalIndex
from .isaxt import batch_decode_signatures
from .local_index import LocalPartition
from .region import RegionSynopsis
from .sigtree import SigTree

__all__ = ["save_index", "load_index"]

logger = logging.getLogger(__name__)

#: Bumped to 2 when the per-partition region synopsis was added, to 3
#: when the value matrix moved to byte planes, to 4 when signatures went
#: ASCII and the high planes became one run-length deflate stream.
_FORMAT_VERSION = 4
#: Versions :func:`load_index` reads.
_READABLE_VERSIONS = (2, 3, 4)

#: A little-endian float64 seen as its six low-order bytes, stored raw in
#: ``values_low``, and its two high-order bytes, which go plane-major
#: into ``values_high``.
_PLANES = np.dtype([("low", "V6"), ("high", "u1", (2,))])
#: ``values_high``'s planes are nearly constant along a series, so a
#: deflate that looks only for runs at the cheapest level finds their
#: redundancy, and finds it faster than the default strategy does.
_HIGH_DEFLATE = (1, zlib.DEFLATED, -zlib.MAX_WBITS, 8, zlib.Z_RLE)
#: Members stored without zip compression; the rest are deflated at
#: zlib's default level.
_STORED = ("values_low", "values_high")
#: Modification time of every archive member: the zip epoch.
_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def _string_array(strings, kind: str = "U") -> np.ndarray:
    """A string array of ``kind`` (``"U"``, or ``"S"`` for ASCII) sized
    to the longest string, never truncating.

    A fixed ``dtype="U64"`` silently chops longer values — iSAX-T
    signatures grow with ``cardinality_bits × word_length`` (already 72
    chars at the default 9 bits × 32 words), and a truncated signature
    corrupts every lookup after a round-trip.
    """
    strings = np.asarray(strings, dtype=str)
    return strings.astype(f"{kind}{np.char.str_len(strings).max(initial=1)}")


def _split_planes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values_low, values_high)`` of an ``(m, n)`` float64 matrix:
    its ``(m, n, 6)`` low bytes and its ``(2, m, n)`` high planes."""
    m, n = values.shape
    fields = np.ascontiguousarray(values, dtype="<f8").view(_PLANES)
    low = np.ascontiguousarray(fields["low"]).view(np.uint8)
    return low.reshape(m, n, 6), np.moveaxis(fields["high"], -1, 0).copy()


def _join_planes(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The float64 matrix :func:`_split_planes` took apart, bit-exactly:
    each half is written straight into place in the result, a block
    column buffer of its own."""
    m, n = low.shape[:2]
    values = column_buffer((m, n), "<f8")
    fields = values.view(_PLANES)
    fields["low"] = np.ascontiguousarray(low).view("V6").reshape(m, n)
    for plane, bytes_ in enumerate(high):
        fields["high"][..., plane] = bytes_
    return values.astype(np.float64, copy=False)


def _deflate_high(high: np.ndarray) -> np.ndarray:
    """``values_high``'s planes as one raw deflate stream, as uint8."""
    deflater = zlib.compressobj(*_HIGH_DEFLATE)
    stream = deflater.compress(np.ascontiguousarray(high)) + deflater.flush()
    return np.frombuffer(stream, dtype=np.uint8)


def _read_values(payload, version: int, file) -> np.ndarray:
    """A partition file's float64 value matrix, in any readable format.

    A format-4 ``values_high`` that does not inflate to exactly the
    ``2 · m · n`` bytes of its planes, or whose member fails the zip
    CRC, raises ``ValueError`` naming ``file``.
    """
    if version == 2:
        return payload["values"]
    low = payload["values_low"]
    if version == 3:
        return _join_planes(low, payload["values_high"])
    m, n = low.shape[:2]
    try:
        raw = zlib.decompress(
            payload["values_high"], -zlib.MAX_WBITS, max(1, 2 * m * n)
        )
    except (zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"{file}: values_high is corrupt: {exc}") from None
    if len(raw) != 2 * m * n:
        raise ValueError(
            f"{file}: values_high inflates to {len(raw)} bytes, "
            f"not the {2 * m * n} of ({m}, {n}) values"
        )
    return _join_planes(low, np.frombuffer(raw, np.uint8).reshape(2, m, n))


def _write_members(file: Path, members: dict) -> None:
    """One ``.npz`` of ``.npy`` members: :data:`_STORED` ones stored, the
    rest deflated at zlib's default level.

    Every member carries the fixed :data:`_MEMBER_DATE_TIME` stamp (a
    bare name would take the current time), so saving one index twice
    writes the same bytes.
    """
    with zipfile.ZipFile(file, "w") as archive:
        for name, array in members.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, array, allow_pickle=False)
            member = zipfile.ZipInfo(f"{name}.npy", _MEMBER_DATE_TIME)
            member.external_attr = 0o600 << 16  # what a bare name gets
            archive.writestr(
                member, buffer.getvalue(),
                compress_type=(
                    zipfile.ZIP_STORED if name in _STORED
                    else zipfile.ZIP_DEFLATED
                ),
            )


def save_index(index: TardisIndex, path: str | Path) -> None:
    """Serialize a built index into ``path`` (created if missing)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "partitions").mkdir(exist_ok=True)

    config = index.config
    meta = {
        "format_version": _FORMAT_VERSION,
        "dataset_name": index.dataset_name,
        "n_records": index.n_records,
        "series_length": index.series_length,
        "clustered": index.clustered,
        "n_partitions": index.global_index.n_partitions,
        "config": {
            "word_length": config.word_length,
            "cardinality_bits": config.cardinality_bits,
            "g_max_size": config.g_max_size,
            "l_max_size": config.l_max_size,
            "sampling_fraction": config.sampling_fraction,
            "pth": config.pth,
            "n_workers": config.n_workers,
            "bloom_fp_rate": config.bloom_fp_rate,
            "seed": config.seed,
        },
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2))
    logger.info(
        "saving index to %s (%d partitions)", root, len(index.partitions)
    )

    # Breadth first, in child order: what a load's inserts by signature
    # length rebuild, child order included.
    order = [index.global_index.tree.root]
    for node in order:
        order.extend(node.children.values())
    nodes = [
        {
            "signature": node.signature,
            "count": node.count,
            "partition_id": node.partition_id,
        }
        for node in order[1:]  # root is implicit
    ]
    global_doc = {
        "root_count": index.global_index.tree.root.count,
        "nodes": nodes,
    }
    (root / "global_index.json").write_text(json.dumps(global_doc))

    written = set()
    for pid, partition in index.partitions.items():
        # The live rows in tree order — what a reload re-indexes as rows
        # 0..m-1 — one gather per column.
        rows = partition.entries_under(partition.tree.root)
        block = partition.block
        if index.clustered and len(rows):
            values = block.values[rows]
        else:
            values = np.zeros((0, index.series_length))
        values_low, values_high = _split_planes(values)
        file = root / "partitions" / f"p{pid:05d}.npz"
        _write_members(file, {
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
        written.add(file.name)
    # A smaller index saved over a larger one must not leave the larger
    # one's partitions behind.
    for file in (root / "partitions").glob("p*.npz"):
        if file.name not in written:
            file.unlink()


def load_index(path: str | Path, partition_ids=None) -> TardisIndex:
    """Reconstruct a :class:`TardisIndex` saved by :func:`save_index`.

    With ``partition_ids`` only those partition files are read — the
    same index :func:`repro.sharding.shard.subset_index` would cut out
    of a full load (the whole Tardis-G, ``n_records`` summed over the
    loaded partitions), without ever holding the others.  An id the
    directory does not hold raises ``KeyError``.
    """
    root = Path(path)
    meta = json.loads((root / "meta.json").read_text())
    version = meta.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(f"unsupported index format version {version}")
    config = TardisConfig(**meta["config"])

    global_index = TardisGlobalIndex(config)
    global_doc = json.loads((root / "global_index.json").read_text())
    global_index.tree.set_root_count(global_doc["root_count"])
    # Insert shallow nodes first so ancestors exist with correct counts.
    for node in sorted(global_doc["nodes"], key=lambda n: len(n["signature"])):
        inserted = global_index.tree.insert_stat_node(
            node["signature"], node["count"]
        )
        inserted.partition_id = node["partition_id"]
    from .partitioning import _synchronize_id_lists

    _synchronize_id_lists(global_index.tree)
    global_index.n_partitions = meta["n_partitions"]

    files = {
        int(file.stem[1:]): file
        for file in (root / "partitions").glob("p*.npz")
    }
    referenced = {
        node["partition_id"] for node in global_doc["nodes"]
        if node["partition_id"] is not None
    }
    if set(files) != referenced:
        raise ValueError(
            f"{root}: partition files do not match Tardis-G (stray "
            f"{sorted(set(files) - referenced)}, missing "
            f"{sorted(referenced - set(files))})"
        )

    if partition_ids is None:
        wanted = sorted(files)
    else:
        wanted = sorted(partition_ids)
        missing = [pid for pid in wanted if pid not in files]
        if missing:
            raise KeyError(f"partitions not in index: {missing}")

    partitions: dict[int, LocalPartition] = {}
    for pid in wanted:
        with np.load(files[pid], allow_pickle=False) as payload:
            signatures = payload["signatures"]
            if version == 4:  # ASCII on disk, unicode in the block
                signatures = signatures.astype(f"U{signatures.itemsize}")
            rids = payload["record_ids"]
            values = _read_values(payload, version, files[pid])
            bloom_geometry = payload["bloom_geometry"]
            bloom_bits = payload["bloom_bits"]
            nbytes = int(payload["nbytes"][0])
            region_prefixes = payload["region_prefixes"]
        clustered = meta["clustered"] and len(values) == len(rids)
        symbols, _bits = batch_decode_signatures(
            signatures, config.word_length
        )
        block = ColumnarBlock(
            record_ids=np.asarray(rids, dtype=np.int64),
            values=(
                np.asarray(values, dtype=np.float64) if clustered else None
            ),
            signatures=np.asarray(signatures),
            symbols=symbols,
        )
        tree = SigTree(
            word_length=config.word_length,
            max_bits=config.cardinality_bits,
            split_threshold=config.l_max_size,
        )
        tree.attach_block(block)
        tree.bulk_load()
        n_bits, n_hashes, n_items = bloom_geometry
        bloom = BloomFilter(n_bits=int(n_bits), n_hashes=int(n_hashes))
        bloom.bits = bloom_bits
        bloom.n_items = int(n_items)
        partitions[pid] = LocalPartition(
            partition_id=pid,
            tree=tree,
            bloom=bloom,
            n_records=len(rids),
            clustered=meta["clustered"],
            nbytes=nbytes,
            region=RegionSynopsis(
                config.word_length, (str(p) for p in region_prefixes)
            ),
            block=block,
        )

    n_records = (
        meta["n_records"] if partition_ids is None
        else sum(p.n_records for p in partitions.values())
    )
    logger.info(
        "loaded index %s: %d records, %d partitions",
        root, n_records, len(partitions),
    )
    return TardisIndex(
        config=config,
        global_index=global_index,
        partitions=partitions,
        dataset_name=meta["dataset_name"],
        n_records=n_records,
        series_length=meta["series_length"],
        clustered=meta["clustered"],
    )
