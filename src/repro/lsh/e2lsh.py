"""E2LSH: locality-sensitive hashing for Euclidean distance.

The paper takes its search-quality metrics (recall, error ratio) from the
LSH literature it cites — Gionis et al. (VLDB'99) and multi-probe LSH
(Lv et al., VLDB'07).  This module implements the classic p-stable-
distribution scheme (E2LSH) those papers build on, as an additional
comparison point for the kNN benchmarks:

* each of ``n_tables`` hash tables keys vectors by ``hashes_per_table``
  concatenated projections ``floor((a·v + b) / bucket_width)`` with
  Gaussian ``a`` and uniform ``b``;
* a query unions the buckets it lands in across tables and re-ranks the
  candidates by true distance.

Contrast with the iSAX family: LSH candidates are scattered record ids,
so a disk-resident deployment pays one *random* read per candidate — the
access pattern the paper's clustered design exists to avoid.  The cost
model below charges exactly that, which is what makes the comparison in
``benchmarks/test_ablation_lsh.py`` meaningful rather than apples-to-
oranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import CostModel, SimulationLedger
from ..cluster.costmodel import timed_stage
from ..tsdb.distance import gather_euclidean
from ..tsdb.series import TimeSeriesDataset

__all__ = ["LshConfig", "LshIndex", "LshQueryResult", "build_lsh_index"]


@dataclass(frozen=True)
class LshConfig:
    """E2LSH parameters.

    ``bucket_width`` is in distance units of the data space; z-normalized
    series of length ``n`` have typical pairwise distances around
    ``sqrt(2 n)`` (≈23 at n=256), and near-neighbor distances roughly a
    third of that, so the defaults put near neighbors in shared buckets
    for lengths 64-256.  More tables raise recall (and candidate cost);
    more hashes per table sharpen buckets.
    """

    n_tables: int = 8
    hashes_per_table: int = 8
    bucket_width: float = 24.0
    #: Extra buckets probed per table (multi-probe LSH, Lv et al. 2007 —
    #: the paper's citation [24]).  Each extra probe perturbs the hash
    #: coordinate whose projection sits closest to a bucket boundary,
    #: trading a little probe work for recall that would otherwise need
    #: more tables.  0 disables multi-probe.
    probes_per_table: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tables <= 0 or self.hashes_per_table <= 0:
            raise ValueError("n_tables and hashes_per_table must be positive")
        if self.bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if self.probes_per_table < 0:
            raise ValueError("probes_per_table must be non-negative")


@dataclass
class LshQueryResult:
    """kNN answer plus candidate/cost accounting."""

    record_ids: list[int]
    distances: list[float] = field(default_factory=list)
    candidates_examined: int = 0
    tables_probed: int = 0
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s


class LshIndex:
    """In-memory E2LSH tables over one dataset."""

    def __init__(self, dataset: TimeSeriesDataset, config: LshConfig,
                 cost_model: CostModel | None = None):
        self.config = config
        self.dataset = dataset
        self.cost_model = cost_model or CostModel()
        self.construction_ledger = SimulationLedger()
        rng = np.random.default_rng(config.seed)
        n = dataset.length
        # Projection tensors: (tables, hashes, n) and offsets (tables, hashes).
        self._projections = rng.standard_normal(
            (config.n_tables, config.hashes_per_table, n)
        )
        self._offsets = rng.uniform(
            0.0, config.bucket_width,
            size=(config.n_tables, config.hashes_per_table),
        )
        self._tables: list[dict[tuple, list[int]]] = [
            {} for _ in range(config.n_tables)
        ]
        self._row_of = {int(rid): i for i, rid in enumerate(dataset.record_ids)}

    # -- hashing -------------------------------------------------------------

    def _bucket_keys(self, values: np.ndarray) -> np.ndarray:
        """Bucket coordinates for a batch: shape (m, tables, hashes)."""
        return self._keys_and_fractions(values)[0]

    def _keys_and_fractions(
        self, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucket keys plus each coordinate's in-bucket fraction [0, 1).

        The fraction drives multi-probe ordering: a coordinate near 0
        (resp. near 1) almost fell into the bucket below (resp. above),
        so perturbing it is the most promising extra probe.
        """
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        # (m, tables, hashes) = (m, n) x (tables, hashes, n)
        projected = np.einsum("mn,thn->mth", values, self._projections)
        scaled = (projected + self._offsets[None, :, :]) / self.config.bucket_width
        keys = np.floor(scaled).astype(np.int64)
        fractions = scaled - keys
        return keys, fractions

    def _probe_sequence(
        self, key: np.ndarray, fraction: np.ndarray
    ) -> list[tuple]:
        """The base bucket plus the best ``probes_per_table`` perturbations."""
        probes = [tuple(key)]
        if not self.config.probes_per_table:
            return probes
        # Score each single-coordinate perturbation by boundary proximity.
        scored = []
        for j in range(self.config.hashes_per_table):
            scored.append((fraction[j], j, -1))       # fell just above floor
            scored.append((1.0 - fraction[j], j, +1))  # just below ceiling
        scored.sort()
        for _closeness, j, delta in scored[: self.config.probes_per_table]:
            perturbed = key.copy()
            perturbed[j] += delta
            probes.append(tuple(perturbed))
        return probes

    def _insert_all(self) -> None:
        keys = self._bucket_keys(self.dataset.values)
        for i, rid in enumerate(self.dataset.record_ids):
            for t in range(self.config.n_tables):
                bucket = tuple(keys[i, t])
                self._tables[t].setdefault(bucket, []).append(int(rid))

    # -- query ---------------------------------------------------------------

    def knn(self, query: np.ndarray, k: int) -> LshQueryResult:
        """Approximate kNN: union of matching buckets, re-ranked exactly.

        The re-rank charges one random series read per distinct candidate
        (a disk-resident LSH deployment's access pattern); the hash probes
        themselves are in-memory.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        result = LshQueryResult(record_ids=[])
        with timed_stage(result.ledger, "query/hash probes"):
            keys, fractions = self._keys_and_fractions(query)
            candidate_ids: set[int] = set()
            for t in range(self.config.n_tables):
                for bucket in self._probe_sequence(keys[0, t], fractions[0, t]):
                    candidate_ids.update(self._tables[t].get(bucket, ()))
                    result.tables_probed += 1
        result.candidates_examined = len(candidate_ids)
        if not candidate_ids:
            return result
        # Random reads: one scattered series fetch per candidate (seek
        # latency + transfer), the access pattern clustering avoids.
        io = self.cost_model.random_read_time(
            len(candidate_ids), len(candidate_ids) * self.dataset.length * 8
        )
        result.ledger.record_stage(
            "query/random candidate reads", wall_s=io, io_s=io,
            tasks=len(candidate_ids),
        )
        with timed_stage(result.ledger, "query/rank"):
            ordered_ids = sorted(candidate_ids)
            rows = [self._row_of[rid] for rid in ordered_ids]
            distances = gather_euclidean(query, self.dataset.values, rows)
            order = np.argsort(distances, kind="stable")[:k]
            result.record_ids = [ordered_ids[i] for i in order]
            result.distances = [float(distances[i]) for i in order]
        return result

    # -- reporting -------------------------------------------------------------

    def nbytes(self) -> int:
        """Modelled table size: bucket keys + record-id postings."""
        total = 0
        for table in self._tables:
            for bucket, postings in table.items():
                total += 8 * len(bucket) + 8 * len(postings)
        return total

    def bucket_stats(self) -> tuple[int, float]:
        """(total buckets, mean postings per bucket) across tables."""
        counts = [len(p) for table in self._tables for p in table.values()]
        if not counts:
            return 0, 0.0
        return len(counts), float(np.mean(counts))


def build_lsh_index(
    dataset: TimeSeriesDataset,
    config: LshConfig | None = None,
    cost_model: CostModel | None = None,
) -> LshIndex:
    """Hash every series into all tables (one vectorized pass)."""
    config = config or LshConfig()
    index = LshIndex(dataset, config, cost_model=cost_model)
    with timed_stage(index.construction_ledger, "build/hash+insert"):
        index._insert_all()
    return index
