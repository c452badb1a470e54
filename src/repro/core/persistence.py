"""Index persistence: save/load a built TARDIS index to a directory.

The on-disk layout mirrors the logical deployment (one file per
partition, one file for the master-resident global index) and uses only
JSON and raw little-endian arrays, so a directory is inspectable and
robust across Python versions — no pickle.

::

    index_dir/
      meta.json             # config, dataset identity, counts, and the
                            #   byte length and CRC32 of every file below
      global_index.json     # sigTree nodes: signature, count, pid
      partitions/
        p00000.part         # one file per partition (format 5):
                            #   a fixed header, then three sections

A format-5 partition file is a fixed header of :data:`_HEADER_BYTES`
(the magic, then one :data:`_ROW` per section and per column: name,
dtype, shape, offset, byte length, CRC32), followed by its sections
back to back:

* ``values_low`` — the ``(m, n, 6)`` low-order bytes of the partition's
  ``(m, n)`` float64 value matrix, raw;
* ``values_high`` — the two high-order byte planes, plane-major, as one
  raw deflate stream made with ``Z_RLE`` at level 1;
* ``columns`` — the small columns deflated together as one stream:
  ASCII signatures, record ids, ASCII region prefixes, Bloom bits, Bloom
  geometry and ``nbytes``, whose header rows give offsets into the
  inflated stream.

The value matrix is split into byte planes of its little-endian bytes
(format 3 on).  The six low-order planes are mantissa noise that no
compressor shrinks, so they are stored as they are; the two high-order
planes (sign, exponent, top mantissa bits) are nearly constant along a
series, which a run-length deflate finds at its cheapest level.  Both
halves move through one structured view of the float64 matrix
(:data:`_PLANES`), written in place, with no full-size temporaries.  A
load reads the header and each section with ``readinto`` — the low
planes straight into a column buffer — checks every section and column
against its CRC32 and its shape against the partition's row count,
inflates the two streams, and joins the planes; the small columns are
copied out of the inflated stream, so no loaded column pins a file
buffer.  Signatures are hex, so they are saved as ASCII and widened back
to the unicode the block holds.  Formats 2 (one deflated ``values``
member), 3 (unicode signatures, a ``(2, m, n)`` ``values_high`` the zip
deflates) and 4 (format 5's arrays as ``.npy`` members of one
``p*.npz`` zip per partition) are still read.

A save writes the partition files first, then ``global_index.json``,
then ``meta.json``, which lists every file's byte length and the CRC32
of ``global_index.json`` and of each partition file's header (whose
rows hold its sections' CRCs).  Only then does it remove partition
files of any format that it did not write, so a smaller index saved
over a larger one does not inherit its partitions.  A load refuses,
with a ``ValueError`` naming it, any file it reads that disagrees with
``meta.json``: a save torn part-way through does not load as a mix of
two indices.  It also refuses a directory whose partition files are not
exactly the partitions Tardis-G references — also when it is asked for
only some of them, as a shard process asks for the partitions it hosts
and reads no other partition file.  Local sigTrees are rebuilt from the
stored rows by one :meth:`SigTree.bulk_load` (the tree row-by-row
inserts would build); Bloom filters are restored bit-exactly, so the
no-false-negative guarantee carries over without re-hashing.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
import zipfile
import zlib
from pathlib import Path
from typing import NamedTuple

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
#: ASCII and the high planes became one run-length deflate stream, to 5
#: when a partition became one file of raw sections.
_FORMAT_VERSION = 5
#: Versions :func:`load_index` reads.
_READABLE_VERSIONS = (2, 3, 4, 5)
#: Partition file suffix by format: a zip of ``.npy`` members up to
#: format 4, a header and sections from format 5.
_SUFFIX = {2: ".npz", 3: ".npz", 4: ".npz", 5: ".part"}

#: A little-endian float64 seen as its six low-order bytes, stored raw in
#: ``values_low``, and its two high-order bytes, which go plane-major
#: into ``values_high``.
_PLANES = np.dtype([("low", "V6"), ("high", "u1", (2,))])
#: ``values_high``'s planes are nearly constant along a series, so a
#: deflate that looks only for runs at the cheapest level finds their
#: redundancy, and finds it faster than the default strategy does.
_HIGH_DEFLATE = (1, zlib.DEFLATED, -zlib.MAX_WBITS, 8, zlib.Z_RLE)
#: The small columns' stream: raw deflate at zlib's default level.
_COLUMNS_DEFLATE = (zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -zlib.MAX_WBITS)

#: First bytes of a format-5 partition file.
_MAGIC = b"TARDISp\x05"
#: One header row: name, numpy dtype string, shape (unused dimensions
#: -1), offset, byte length, and the CRC32 of those bytes.
_ROW = struct.Struct("<16s8s3qQQI4x")
#: The file's sections, back to back after the header, in this order.
_SECTIONS = ("values_low", "values_high", "columns")
#: The columns deflated together as the ``columns`` section, in stream
#: order; their offsets are into the inflated stream.
_COLUMNS = (
    "signatures", "record_ids", "region_prefixes", "bloom_bits",
    "bloom_geometry", "nbytes",
)
_HEADER_BYTES = len(_MAGIC) + _ROW.size * (len(_SECTIONS) + len(_COLUMNS))


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


def _inflate(stream, size: int, file, name: str) -> bytes:
    """A raw deflate ``stream`` that must inflate to exactly ``size``
    bytes and end there; ``ValueError`` naming ``file`` and section
    ``name`` if not.  Nothing past ``size + 1`` bytes is inflated."""
    inflater = zlib.decompressobj(-zlib.MAX_WBITS)
    try:
        raw = inflater.decompress(stream, size + 1)
    except zlib.error as exc:
        raise ValueError(f"{file}: {name} is corrupt: {exc}") from None
    if len(raw) != size or not inflater.eof:
        raise ValueError(
            f"{file}: {name} inflates to {len(raw)} bytes"
            f"{'' if inflater.eof else ' without ending'}, not {size}"
        )
    return raw


def _read_values(payload, version: int, file) -> np.ndarray:
    """A format-2, -3 or -4 partition file's float64 value matrix.

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
        stream = payload["values_high"]
    except zipfile.BadZipFile as exc:
        raise ValueError(f"{file}: values_high is corrupt: {exc}") from None
    raw = _inflate(stream, 2 * m * n, file, "values_high")
    return _join_planes(low, np.frombuffer(raw, np.uint8).reshape(2, m, n))


class _Columns(NamedTuple):
    """One partition's arrays as a partition file holds them."""

    signatures: np.ndarray  # unicode
    record_ids: np.ndarray
    values: np.ndarray
    region_prefixes: list
    bloom_bits: np.ndarray
    bloom_geometry: tuple
    nbytes: int


def _header_row(name: str, array: np.ndarray, offset: int) -> bytes:
    shape = array.shape + (-1,) * (3 - array.ndim)
    return _ROW.pack(
        name.encode(), array.dtype.str.encode(), *shape, offset,
        array.nbytes, zlib.crc32(array),
    )


def _write_partition(file: Path, columns: dict) -> dict:
    """Write one format-5 partition file from its arrays by name (every
    :data:`_SECTIONS` but ``columns``, and every :data:`_COLUMNS`);
    returns its ``meta.json`` entry."""
    small = [np.ascontiguousarray(columns[name]) for name in _COLUMNS]
    deflater = zlib.compressobj(*_COLUMNS_DEFLATE)
    stream = b"".join(map(deflater.compress, small)) + deflater.flush()
    sections = [
        columns["values_low"], columns["values_high"],
        np.frombuffer(stream, dtype=np.uint8),
    ]
    rows, offset = [], _HEADER_BYTES
    for name, array in zip(_SECTIONS, sections):
        rows.append(_header_row(name, array, offset))
        offset += array.nbytes
    at = 0
    for name, array in zip(_COLUMNS, small):
        rows.append(_header_row(name, array, at))
        at += array.nbytes
    header = _MAGIC + b"".join(rows)
    with open(file, "wb") as out:
        out.write(header)
        for array in sections:
            out.write(array)
    return {"bytes": offset, "header_crc32": zlib.crc32(header)}


def _fill(source, buffer: np.ndarray, file, name: str) -> None:
    """``readinto`` until the contiguous ``buffer`` is full;
    ``ValueError`` naming ``file`` and section ``name`` if the file ends
    first."""
    view = memoryview(buffer.reshape(-1).view(np.uint8))
    while view:
        got = source.readinto(view)
        if not got:
            raise ValueError(f"{file}: {name} is truncated")
        view = view[got:]


def _copied(array: np.ndarray, dtype=None) -> np.ndarray:
    """``array`` as ``dtype`` in a column buffer of its own."""
    out = column_buffer(array.shape, dtype or array.dtype)
    out[...] = array
    return out


def _parse_header(header: bytes, file) -> dict:
    """Name → ``(dtype, shape, offset, nbytes, crc32)`` of every header
    row, each row's byte length checked against its dtype and shape."""
    if len(header) != _HEADER_BYTES or header[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{file}: not a format-5 partition file")
    rows = {}
    for at, expected in enumerate(_SECTIONS + _COLUMNS):
        name, dtype, *shape, offset, nbytes, crc = _ROW.unpack_from(
            header, len(_MAGIC) + at * _ROW.size
        )
        try:
            dtype = np.dtype(dtype.rstrip(b"\0").decode("ascii"))
        except (TypeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{file}: {expected} has no dtype: {exc}") from None
        shape = tuple(dim for dim in shape if dim >= 0)
        if (
            name.rstrip(b"\0") != expected.encode() or dtype.kind not in "uiS"
            or nbytes != dtype.itemsize * math.prod(shape)
        ):
            raise ValueError(f"{file}: header row {at} ({expected}) is malformed")
        rows[expected] = (dtype, shape, offset, nbytes, crc)
    return rows


def _check_tiling(rows: dict, names: tuple, start: int, end: int, file, what: str) -> None:
    """The ``names`` rows lie back to back from ``start`` to ``end``."""
    for name in names:
        _dtype, _shape, offset, nbytes, _crc = rows[name]
        if offset != start:
            raise ValueError(f"{file}: {name} is not where {what} puts it")
        start += nbytes
    if start != end:
        raise ValueError(f"{file}: {what} holds {end} bytes, its rows {start}")


def _check_crc(rows: dict, name: str, data, file) -> None:
    if zlib.crc32(data) != rows[name][4]:
        raise ValueError(f"{file}: {name} fails its CRC32")


def _read_partition(file: Path, entry: dict | None, clustered: bool) -> _Columns:
    """A format-5 partition file's arrays, checked against ``entry`` (its
    ``meta.json`` line) and against itself; ``ValueError`` naming
    ``file`` on any disagreement."""
    if entry is None:
        raise ValueError(f"{file}: not listed in meta.json")
    with open(file, "rb", buffering=0) as source:
        size = os.fstat(source.fileno()).st_size
        header = np.empty(min(size, _HEADER_BYTES), np.uint8)
        _fill(source, header, file, "header")
        header = header.tobytes()
        if size != entry["bytes"] or zlib.crc32(header) != entry["header_crc32"]:
            raise ValueError(
                f"{file}: does not match meta.json ({size} bytes, header "
                f"CRC32 {zlib.crc32(header)}; listed {entry['bytes']} "
                f"bytes, {entry['header_crc32']})"
            )
        rows = _parse_header(header, file)
        _check_tiling(rows, _SECTIONS, _HEADER_BYTES, size, file, "the file")
        low = column_buffer(rows["values_low"][1], np.uint8)
        high = np.empty(rows["values_high"][3], np.uint8)
        stream = np.empty(rows["columns"][3], np.uint8)
        for name, buffer in zip(_SECTIONS, (low, high, stream)):
            _fill(source, buffer, file, name)
            _check_crc(rows, name, buffer, file)
    raw = _inflate(
        stream, sum(rows[name][3] for name in _COLUMNS), file, "columns"
    )
    _check_tiling(rows, _COLUMNS, 0, len(raw), file, "columns")
    arrays = {}
    for name in _COLUMNS:
        dtype, shape, offset, nbytes, _crc = rows[name]
        _check_crc(rows, name, memoryview(raw)[offset:offset + nbytes], file)
        arrays[name] = np.frombuffer(
            raw, dtype, math.prod(shape), offset
        ).reshape(shape)
    m = len(arrays["signatures"])
    if (
        arrays["record_ids"].shape != (m,) or low.ndim != 3
        or low.shape[0] != (m if clustered else 0) or low.shape[2] != 6
        or arrays["bloom_geometry"].shape != (3,)
        or arrays["nbytes"].shape != (1,)
    ):
        raise ValueError(
            f"{file}: row counts disagree ({m} signatures, "
            f"{arrays['record_ids'].shape} record ids, values_low {low.shape})"
        )
    n = low.shape[1]
    high = _inflate(high, 2 * low.shape[0] * n, file, "values_high")
    signatures = arrays["signatures"]
    return _Columns(
        signatures=_copied(signatures, f"U{signatures.itemsize}"),
        record_ids=_copied(arrays["record_ids"]),
        values=_join_planes(
            low, np.frombuffer(high, np.uint8).reshape(2, low.shape[0], n)
        ),
        region_prefixes=[p.decode() for p in arrays["region_prefixes"].tolist()],
        bloom_bits=_copied(arrays["bloom_bits"]),
        bloom_geometry=tuple(arrays["bloom_geometry"].tolist()),
        nbytes=int(arrays["nbytes"][0]),
    )


def _read_archive(file: Path, version: int) -> _Columns:
    """A format-2, -3 or -4 partition file's arrays."""
    with np.load(file, allow_pickle=False) as payload:
        signatures = payload["signatures"]
        if version == 4:  # ASCII on disk, unicode in the block
            signatures = signatures.astype(f"U{signatures.itemsize}")
        return _Columns(
            signatures=signatures,
            record_ids=payload["record_ids"],
            values=_read_values(payload, version, file),
            region_prefixes=[str(p) for p in payload["region_prefixes"]],
            bloom_bits=payload["bloom_bits"],
            bloom_geometry=tuple(payload["bloom_geometry"].tolist()),
            nbytes=int(payload["nbytes"][0]),
        )


def _read_listed(file: Path, listed: dict | None) -> bytes:
    """The bytes of ``file``, a file at the index's root; with
    ``meta.json``'s file list (``listed``, from format 5 on) its byte
    length and CRC32 must be the ones listed."""
    data = file.read_bytes()
    if listed is not None:
        entry = listed.get(file.name)
        if entry is None or (
            len(data) != entry["bytes"] or zlib.crc32(data) != entry["crc32"]
        ):
            raise ValueError(f"{file}: does not match meta.json")
    return data


def save_index(index: TardisIndex, path: str | Path) -> None:
    """Serialize a built index into ``path`` (created if missing)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "partitions").mkdir(exist_ok=True)
    logger.info(
        "saving index to %s (%d partitions)", root, len(index.partitions)
    )

    files = {}
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
        name = f"partitions/p{pid:05d}{_SUFFIX[_FORMAT_VERSION]}"
        files[name] = _write_partition(root / name, {
            "values_low": values_low,
            "values_high": _deflate_high(values_high),
            "signatures": _string_array(block.signatures[rows], "S"),
            "record_ids": block.record_ids[rows],
            "region_prefixes": _string_array(
                sorted(partition.region_prefixes), "S"
            ),
            "bloom_bits": partition.bloom.bits,
            "bloom_geometry": np.array(
                [partition.bloom.n_bits, partition.bloom.n_hashes,
                 partition.bloom.n_items],
                dtype=np.int64,
            ),
            "nbytes": np.array([partition.nbytes], dtype=np.int64),
        })

    # Breadth first, in child order: what a load's inserts by signature
    # length rebuild, child order included.
    order = [index.global_index.tree.root]
    for node in order:
        order.extend(node.children.values())
    global_doc = json.dumps({
        "root_count": index.global_index.tree.root.count,
        "nodes": [
            {
                "signature": node.signature,
                "count": node.count,
                "partition_id": node.partition_id,
            }
            for node in order[1:]  # root is implicit
        ],
    }).encode()
    (root / "global_index.json").write_bytes(global_doc)
    files["global_index.json"] = {
        "bytes": len(global_doc), "crc32": zlib.crc32(global_doc),
    }

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
        "files": dict(sorted(files.items())),
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2))
    # Only now, with meta.json naming this save's files: a smaller index
    # saved over a larger one must not leave the larger one's
    # partitions behind, in any format.
    for file in (root / "partitions").glob("p*"):
        if f"partitions/{file.name}" not in files:
            file.unlink()


def load_index(path: str | Path, partition_ids=None) -> TardisIndex:
    """Reconstruct a :class:`TardisIndex` saved by :func:`save_index`.

    With ``partition_ids`` only those partition files are read — the
    same index :func:`repro.sharding.shard.subset_index` would cut out
    of a full load (the whole Tardis-G, ``n_records`` summed over the
    loaded partitions), without ever holding the others.  An id the
    directory does not hold raises ``KeyError``.  A file that disagrees
    with ``meta.json`` raises ``ValueError`` naming it.
    """
    root = Path(path)
    meta = json.loads((root / "meta.json").read_text())
    version = meta.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(f"unsupported index format version {version}")
    config = TardisConfig(**meta["config"])
    # Formats before 5 list no files, so there is nothing to check.
    listed = meta.get("files", {}) if version >= 5 else None

    global_index = TardisGlobalIndex(config)
    global_doc = json.loads(_read_listed(root / "global_index.json", listed))
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
        for file in (root / "partitions").glob(f"p*{_SUFFIX[version]}")
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
        file = files[pid]
        if listed is None:
            columns = _read_archive(file, version)
        else:
            columns = _read_partition(
                file, listed.get(f"partitions/{file.name}"), meta["clustered"]
            )
        rids = columns.record_ids
        clustered = meta["clustered"] and len(columns.values) == len(rids)
        symbols, _bits = batch_decode_signatures(
            columns.signatures, config.word_length
        )
        block = ColumnarBlock(
            record_ids=np.asarray(rids, dtype=np.int64),
            values=(
                np.asarray(columns.values, dtype=np.float64)
                if clustered else None
            ),
            signatures=np.asarray(columns.signatures),
            symbols=symbols,
        )
        tree = SigTree(
            word_length=config.word_length,
            max_bits=config.cardinality_bits,
            split_threshold=config.l_max_size,
        )
        tree.attach_block(block)
        tree.bulk_load()
        n_bits, n_hashes, n_items = columns.bloom_geometry
        bloom = BloomFilter(n_bits=int(n_bits), n_hashes=int(n_hashes))
        bloom.bits = columns.bloom_bits
        bloom.n_items = int(n_items)
        partitions[pid] = LocalPartition(
            partition_id=pid,
            tree=tree,
            bloom=bloom,
            n_records=len(rids),
            clustered=meta["clustered"],
            nbytes=columns.nbytes,
            region=RegionSynopsis(config.word_length, columns.region_prefixes),
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
