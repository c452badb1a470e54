"""TARDIS configuration (paper Table II, scaled per DESIGN.md §6)."""

from __future__ import annotations

from dataclasses import dataclass

from .isaxt import validate_word_length

__all__ = ["TardisConfig"]


@dataclass(frozen=True)
class TardisConfig:
    """All knobs of the TARDIS framework.

    Defaults mirror Table II with dataset-scale quantities shrunk
    proportionally (the paper's 110 k-series HDFS block becomes a 2000-series
    block; ratios to dataset size are preserved — see DESIGN.md §6).
    """

    #: Number of SAX segments per word (Table II: 8).
    word_length: int = 8
    #: Initial cardinality bits for TARDIS: 2^6 = 64 (Table II).
    cardinality_bits: int = 6
    #: Split threshold of Tardis-G leaves = series capacity of one
    #: partition/HDFS block (paper: ~110 k; scaled so partition counts at
    #: reproduction scale grow the way the paper's do).
    g_max_size: int = 500
    #: Split threshold of Tardis-L leaves (paper: 1000; scaled).
    l_max_size: int = 50
    #: Block-level sampling fraction for Tardis-G statistics (Table II: 10%).
    sampling_fraction: float = 0.10
    #: Cap on partitions loaded by Multi-Partitions Access (paper: 40; scaled).
    pth: int = 8
    #: Simulated workers (the paper's cluster exposes 112 cores on 2 nodes).
    n_workers: int = 8
    #: Target false-positive rate of the per-partition Bloom filters.
    bloom_fp_rate: float = 0.01
    #: Seed for block sampling and any tie-breaking randomness.
    seed: int = 0

    def __post_init__(self) -> None:
        validate_word_length(self.word_length)
        if not 1 <= self.cardinality_bits <= 16:
            raise ValueError("cardinality_bits must be in [1, 16]")
        if self.g_max_size <= 0 or self.l_max_size <= 0:
            raise ValueError("split thresholds must be positive")
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError("sampling_fraction must be in (0, 1]")
        if self.pth <= 0:
            raise ValueError("pth must be positive")

    @property
    def partition_capacity(self) -> int:
        """Series capacity of a partition (Def. 5's ``C``) = G-MaxSize."""
        return self.g_max_size
