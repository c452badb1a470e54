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
        p00000.npz          # signatures, record ids, series, bloom bits

Local sigTrees are rebuilt by re-inserting the stored entries (insertion
is deterministic and fast); Bloom filters are restored bit-exactly, so
the no-false-negative guarantee carries over without re-hashing.
"""

from __future__ import annotations

import json
import logging
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

#: Bumped to 2 when the per-partition region synopsis was added.
_FORMAT_VERSION = 2


def _string_array(strings) -> np.ndarray:
    """A unicode array sized to the longest string, never truncating.

    A fixed ``dtype="U64"`` silently chops longer values — iSAX-T
    signatures grow with ``cardinality_bits × word_length`` (already 72
    chars at the default 9 bits × 32 words), and a truncated signature
    corrupts every lookup after a round-trip.
    """
    strings = list(strings)
    width = max((len(s) for s in strings), default=1)
    return np.array(strings, dtype=f"U{max(1, width)}")


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

    for pid, partition in index.partitions.items():
        entries = partition.all_entries()
        signatures = _string_array(e[0] for e in entries)
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
            region_prefixes=_string_array(sorted(partition.region_prefixes)),
            bloom_bits=partition.bloom.bits,
            bloom_geometry=np.array(
                [partition.bloom.n_bits, partition.bloom.n_hashes,
                 partition.bloom.n_items],
                dtype=np.int64,
            ),
            nbytes=np.array([partition.nbytes], dtype=np.int64),
        )


def load_index(path: str | Path) -> TardisIndex:
    """Reconstruct a :class:`TardisIndex` saved by :func:`save_index`."""
    root = Path(path)
    meta = json.loads((root / "meta.json").read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported index format version {meta.get('format_version')}"
        )
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

    partitions: dict[int, LocalPartition] = {}
    for file in sorted((root / "partitions").glob("p*.npz")):
        pid = int(file.stem[1:])
        payload = np.load(file, allow_pickle=False)
        tree = SigTree(
            word_length=config.word_length,
            max_bits=config.cardinality_bits,
            split_threshold=config.l_max_size,
        )
        signatures = payload["signatures"]
        rids = payload["record_ids"]
        values = payload["values"]
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
        tree.attach_block(block)
        for row in range(block.n_rows):
            tree.insert_entry(row)
        n_bits, n_hashes, n_items = payload["bloom_geometry"]
        bloom = BloomFilter(n_bits=int(n_bits), n_hashes=int(n_hashes))
        bloom.bits = payload["bloom_bits"].copy()
        bloom.n_items = int(n_items)
        partitions[pid] = LocalPartition(
            partition_id=pid,
            tree=tree,
            bloom=bloom,
            n_records=len(rids),
            clustered=meta["clustered"],
            nbytes=int(payload["nbytes"][0]),
            region=RegionSynopsis(
                config.word_length,
                (str(p) for p in payload["region_prefixes"]),
            ),
            block=block,
        )

    logger.info(
        "loaded index %s: %d records, %d partitions",
        root, meta["n_records"], len(partitions),
    )
    return TardisIndex(
        config=config,
        global_index=global_index,
        partitions=partitions,
        dataset_name=meta["dataset_name"],
        n_records=meta["n_records"],
        series_length=meta["series_length"],
        clustered=meta["clustered"],
    )
