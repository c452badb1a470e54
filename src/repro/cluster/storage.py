"""HDFS-like block storage for the simulated cluster.

Datasets live on "disk" as fixed-capacity blocks (the analogue of 128 MB
HDFS blocks).  The engine charges simulated disk time when blocks are read,
and block-level sampling — the paper's Tardis-G preprocessing trick — picks
whole random blocks so only a fraction of the disk is touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..faults.errors import StorageReadError
from ..faults.injector import get_injector
from ..telemetry.perf import KERNELS as _KERNELS
from ..tsdb.series import TimeSeriesDataset
from .costmodel import estimate_bytes

__all__ = ["Block", "BlockStorage"]


@dataclass
class Block:
    """One storage block: a list of records plus its payload size."""

    block_id: int
    records: list
    nbytes: int = field(default=0)

    def __post_init__(self) -> None:
        if self.nbytes == 0:
            self.nbytes = estimate_bytes(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def read_records(self) -> tuple[list, int, float]:
        """Read the block's payload through the fault injector.

        Returns ``(records, extra_reads, delay_s)``: each failed attempt
        (injected IO error / corrupt checksum) adds one ``extra_reads``
        — the engine re-charges a full block read for it — plus a backoff
        pause; an injected straggler adds its delay.  Raises
        :class:`StorageReadError` when the retry budget runs out.
        """
        t0 = perf_counter() if _KERNELS.enabled else 0.0
        injector = get_injector()
        if injector is None:
            return self._materialize(t0), 0, 0.0
        read_seq = injector.next_seq("storage", self.block_id)
        failed, backoff_s, slow_s = injector.sit_out(
            lambda attempt: injector.storage_fault(
                self.block_id, read_seq, attempt
            ),
            ("storage", self.block_id, read_seq),
            lambda attempt, _pauses: StorageReadError(self.block_id, attempt),
        )
        return self._materialize(t0), failed, backoff_s + slow_s

    def _materialize(self, started_s: float) -> list:
        """Copy the record payload out, charging the ``deserialize`` kernel
        with records/bytes handled (the observability analogue of HDFS
        block deserialization)."""
        records = list(self.records)
        if _KERNELS.enabled:
            _KERNELS.record("deserialize", elements=len(records),
                            seconds=perf_counter() - started_s)
            _KERNELS.record("deserialize_bytes", elements=self.nbytes)
        return records


@dataclass
class BlockStorage:
    """A dataset stored as blocks of at most ``block_capacity`` records."""

    blocks: list[Block]
    block_capacity: int

    def __len__(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)

    @classmethod
    def from_records(cls, records: list, block_capacity: int) -> "BlockStorage":
        """Lay records out into consecutive blocks of ``block_capacity``."""
        if block_capacity <= 0:
            raise ValueError("block_capacity must be positive")
        blocks = [
            Block(block_id=i, records=records[start : start + block_capacity])
            for i, start in enumerate(range(0, len(records), block_capacity))
        ]
        return cls(blocks=blocks, block_capacity=block_capacity)

    @classmethod
    def from_dataset(
        cls, dataset: TimeSeriesDataset, block_capacity: int
    ) -> "BlockStorage":
        """Store a dataset as ``(record_id, series)`` records, each priced
        from the value matrix's shape: an 8-byte id plus one row."""
        if block_capacity <= 0:
            raise ValueError("block_capacity must be positive")
        records = list(zip(dataset.record_ids.tolist(), dataset.values))
        record_nbytes = 8 + dataset.values.itemsize * dataset.values.shape[1]
        blocks = []
        for i, start in enumerate(range(0, len(records), block_capacity)):
            chunk = records[start : start + block_capacity]
            blocks.append(Block(
                block_id=i, records=chunk, nbytes=record_nbytes * len(chunk)
            ))
        return cls(blocks=blocks, block_capacity=block_capacity)

    @classmethod
    def of_rows(
        cls, n_rows: int, record_nbytes: int, block_capacity: int
    ) -> "BlockStorage":
        """Rows ``0..n_rows-1`` of a matrix stored as blocks of row
        indices, each row priced at ``record_nbytes``: the layout
        :meth:`from_dataset` gives, with a record's row in place of the
        record."""
        if block_capacity <= 0:
            raise ValueError("block_capacity must be positive")
        blocks = []
        for i, start in enumerate(range(0, n_rows, block_capacity)):
            rows = list(range(start, min(start + block_capacity, n_rows)))
            blocks.append(Block(
                block_id=i, records=rows, nbytes=record_nbytes * len(rows)
            ))
        return cls(blocks=blocks, block_capacity=block_capacity)

    def sample_blocks(self, fraction: float, seed: int = 0) -> list[Block]:
        """Block-level sampling: a random ``fraction`` of whole blocks.

        At least one block is always returned for a non-empty store, so tiny
        datasets still produce statistics (mirrors Spark's behaviour of
        never sampling zero input splits).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if not self.blocks:
            return []
        rng = np.random.default_rng(seed)
        count = max(1, round(fraction * len(self.blocks)))
        chosen = rng.choice(len(self.blocks), size=count, replace=False)
        return [self.blocks[i] for i in sorted(chosen)]
