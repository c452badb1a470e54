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
                            #   signatures, record_ids, region_prefixes,
                            #   bloom_bits, bloom_geometry, nbytes (deflated)
                            #   values_low   (m, n, 6) uint8, stored raw
                            #   values_high  (2, m, n) uint8, deflated

Format 3 stores a partition's ``(m, n)`` float64 value matrix as byte
planes of its little-endian bytes.  The six low-order planes are
mantissa noise that no compressor shrinks, so ``values_low`` is written
uncompressed; the two high-order planes (sign, exponent, top mantissa
bits) are where the redundancy is, so ``values_high`` holds them
plane-major and deflated at :data:`_HIGH_LEVEL`.  The shapes travel in
the ``.npy`` headers, and ``np.load`` still lists every member.  Format 2
(one deflated ``values`` member) is still read.

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
from pathlib import Path

import numpy as np

from ..bloom import BloomFilter
from .builder import TardisIndex
from .columnar import ColumnarBlock
from .config import TardisConfig
from .global_index import TardisGlobalIndex
from .isaxt import batch_decode_signatures
from .local_index import LocalPartition
from .region import RegionSynopsis
from .sigtree import SigTree

__all__ = ["save_index", "load_index"]

logger = logging.getLogger(__name__)

#: Bumped to 2 when the per-partition region synopsis was added, to 3
#: when the value matrix moved to byte planes.
_FORMAT_VERSION = 3
#: Versions :func:`load_index` reads.
_READABLE_VERSIONS = (2, 3)

#: Low-order bytes of every float64 stored raw in ``values_low``; the
#: rest go plane-major into ``values_high``.
_RAW_PLANES = 6
#: zlib level of ``values_high``: its planes are nearly constant, so the
#: cheapest level already finds their runs.
_HIGH_LEVEL = 1
#: Modification time of every archive member: the zip epoch.
_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def _string_array(strings) -> np.ndarray:
    """A unicode array sized to the longest string, never truncating.

    A fixed ``dtype="U64"`` silently chops longer values — iSAX-T
    signatures grow with ``cardinality_bits × word_length`` (already 72
    chars at the default 9 bits × 32 words), and a truncated signature
    corrupts every lookup after a round-trip.
    """
    strings = np.asarray(strings, dtype=str)
    return strings.astype(f"U{np.char.str_len(strings).max(initial=1)}")


def _split_planes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values_low, values_high)`` of an ``(m, n)`` float64 matrix."""
    planes = np.ascontiguousarray(values, dtype="<f8").view(np.uint8)
    planes = planes.reshape(*values.shape, 8)
    low = np.ascontiguousarray(planes[..., :_RAW_PLANES])
    high = np.ascontiguousarray(np.moveaxis(planes[..., _RAW_PLANES:], -1, 0))
    return low, high


def _join_planes(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The float64 matrix :func:`_split_planes` took apart, bit-exactly."""
    m, n = low.shape[:2]
    planes = np.empty((m, n, 8), dtype=np.uint8)
    planes[..., :_RAW_PLANES] = low
    planes[..., _RAW_PLANES:] = np.moveaxis(high, 0, -1)
    return planes.view("<f8").reshape(m, n).astype(np.float64, copy=False)


def _write_members(file: Path, members: dict) -> None:
    """One ``.npz`` of ``.npy`` members: ``values_low`` stored,
    ``values_high`` deflated at :data:`_HIGH_LEVEL`, the rest deflated at
    zlib's default level.

    Every member carries the fixed :data:`_MEMBER_DATE_TIME` stamp (a
    bare name would take the current time), so saving one index twice
    writes the same bytes.
    """
    with zipfile.ZipFile(file, "w") as archive:
        for name, array in members.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, array, allow_pickle=False)
            if name == "values_low":
                method, level = zipfile.ZIP_STORED, None
            else:
                method = zipfile.ZIP_DEFLATED
                level = _HIGH_LEVEL if name == "values_high" else None
            member = zipfile.ZipInfo(f"{name}.npy", _MEMBER_DATE_TIME)
            member.external_attr = 0o600 << 16  # what a bare name gets
            archive.writestr(
                member, buffer.getvalue(),
                compress_type=method, compresslevel=level,
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

    nodes = [
        {
            "signature": node.signature,
            "count": node.count,
            "partition_id": node.partition_id,
        }
        for node in index.global_index.tree.iter_nodes()
        if node.signature  # root is implicit
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
            "signatures": _string_array(block.signatures[rows]),
            "record_ids": block.record_ids[rows],
            "values_low": values_low,
            "values_high": values_high,
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
            rids = payload["record_ids"]
            if version == 2:
                values = payload["values"]
            else:
                values = _join_planes(
                    payload["values_low"], payload["values_high"]
                )
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
