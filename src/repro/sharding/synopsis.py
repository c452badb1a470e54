"""What the router holds: Tardis-G plus per-partition region synopses.

The router deliberately owns *no partition data* — the TARDIS argument
is that the global index is small enough to centralize.  But the
``pth`` fan-out cap and the degraded-answer guarantee both need a
MINDIST lower bound per candidate partition.  A
:class:`PartitionSynopsis` is the partition's
:class:`~repro.core.region.RegionSynopsis` — a handful of short prefix
strings plus the word length — detached from the data and given a
partition id, a record count and a wire form.
"""

from __future__ import annotations

import numpy as np

from ..core.builder import TardisIndex
from ..core.region import RegionMatrix, RegionSynopsis

__all__ = ["PartitionSynopsis", "RouterIndex"]


class PartitionSynopsis(RegionSynopsis):
    """Region synopsis of one partition, detached from its data."""

    __slots__ = ("partition_id", "n_records")

    def __init__(
        self, partition_id: int, n_records: int, word_length: int,
        region_prefixes,
    ):
        super().__init__(word_length, region_prefixes)
        self.partition_id = int(partition_id)
        self.n_records = int(n_records)

    def absorb(self, n_new: int, new_prefixes=()) -> None:
        """Fold an acknowledged write into the synopsis, in place.

        The shard's write ack reports how many records landed in the
        partition and which coarse region prefixes are new; applying
        both here keeps router-side MINDIST bounds sound without
        re-scraping the shard.
        """
        self.n_records += int(n_new)
        self.add(new_prefixes)

    def to_dict(self) -> dict:
        return {
            "partition_id": self.partition_id,
            "n_records": self.n_records,
            "word_length": self.word_length,
            "region_prefixes": sorted(self.region_prefixes),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PartitionSynopsis":
        return cls(
            partition_id=doc["partition_id"],
            n_records=doc["n_records"],
            word_length=doc["word_length"],
            region_prefixes=doc["region_prefixes"],
        )


class RouterIndex:
    """The router's world view: config, Tardis-G, synopses — no data."""

    def __init__(
        self, config, global_index, series_length: int,
        synopses: dict, dataset_name: str = "",
    ):
        self.config = config
        self.global_index = global_index
        self.series_length = int(series_length)
        self.synopses = dict(synopses)
        self.dataset_name = dataset_name
        self._region_matrix: RegionMatrix | None = None

    @classmethod
    def from_index(cls, index: TardisIndex) -> "RouterIndex":
        """Extract the router state from a fully-loaded index.

        The extraction is the only moment the router process touches
        partition objects; afterwards the index can be dropped (spawned
        shard processes load their own subsets from disk).
        """
        synopses = {
            pid: PartitionSynopsis(
                partition_id=pid,
                n_records=partition.n_records,
                word_length=partition.tree.word_length,
                region_prefixes=partition.region_prefixes,
            )
            for pid, partition in index.partitions.items()
        }
        return cls(
            config=index.config,
            global_index=index.global_index,
            series_length=index.series_length,
            synopses=synopses,
            dataset_name=index.dataset_name,
        )

    def bound_of(self, partition_id: int, query_paa: np.ndarray) -> float:
        return self.synopses[partition_id].bound(
            query_paa, self.series_length
        )

    def region_bounds(self, query_paa, partition_ids=None) -> dict[int, float]:
        """Partition id → :meth:`bound_of`, priced in one pass — the
        router's twin of :meth:`TardisIndex.region_bounds
        <repro.core.builder.TardisIndex.region_bounds>`; its matrix goes
        stale when a write ack grows a synopsis."""
        return self.region_matrix().bounds(
            query_paa, self.series_length, partition_ids
        )

    def region_matrix(self) -> RegionMatrix:
        """The current :class:`~repro.core.region.RegionMatrix` over the
        synopses (the ``pth`` cap prices through it)."""
        matrix = self._region_matrix = RegionMatrix.current(
            self._region_matrix, lambda: self.synopses
        )
        return matrix

    @property
    def n_records(self) -> int:
        return sum(s.n_records for s in self.synopses.values())
