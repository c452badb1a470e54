"""Seeded inputs of the benchmark: dataset, query streams, write stream.

``--seed S`` derives every array here — dataset seed ``S``, query seed
``S + 1``, write seed ``S + 2`` — and the program under test only ever
sees the generated arrays, never a seed.

Query streams are made in numbered chunks so that they never run dry (a
faster program just consumes more chunks) and never repeat: the result
cache of the serving tier pays its lookup on every request but can never
memoise one.  Client ``j`` of ``C`` consumes chunks ``j, j + C, …``, so
clients never share a query either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tsdb import random_walk

#: Queries per stream chunk.
CHUNK = 1024
#: Noise added to an indexed row to make a query that has a near neighbour.
NEAR_SIGMA = 0.05


def held_out_walks(rng: np.random.Generator, count: int, length: int) -> np.ndarray:
    """Fresh z-normalised random walks: series the index has never seen."""
    walks = np.cumsum(rng.standard_normal((count, length)), axis=1)
    walks -= walks.mean(axis=1, keepdims=True)
    walks /= walks.std(axis=1, keepdims=True)
    return walks


@dataclass
class Inputs:
    """Everything one run of one workload feeds the program."""

    seed: int
    #: ``(n, length)`` z-normalised series; row ``i`` has record id ``i``.
    data: np.ndarray
    #: Present-probe rows in consumption order (a permutation, so no
    #: exact-match probe repeats before every row was used once).
    probe_rows: np.ndarray

    @property
    def n_series(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]

    # -- kNN query stream ---------------------------------------------------

    def knn_chunk(self, chunk: int) -> np.ndarray:
        """``CHUNK`` kNN queries: even rows have a near neighbour, odd none."""
        rng = np.random.default_rng([self.seed + 1, 1, chunk])
        half = CHUNK // 2
        rows = rng.integers(0, self.n_series, size=half)
        near = self.data[rows] + rng.normal(0.0, NEAR_SIGMA, (half, self.length))
        out = np.empty((CHUNK, self.length))
        out[0::2] = near
        out[1::2] = held_out_walks(rng, half, self.length)
        return out

    # -- exact-match probe stream -------------------------------------------

    def probe_chunk(self, chunk: int) -> tuple[np.ndarray, np.ndarray]:
        """``CHUNK`` probes and the record id each must find (-1: absent).

        Even rows are verbatim indexed series (found), odd rows are
        held-out walks (the Bloom-reject path).
        """
        rng = np.random.default_rng([self.seed + 1, 2, chunk])
        half = CHUNK // 2
        start = (chunk * half) % self.n_series
        rows = np.take(self.probe_rows, np.arange(start, start + half), mode="wrap")
        out = np.empty((CHUNK, self.length))
        expected = np.full(CHUNK, -1, dtype=np.int64)
        out[0::2] = self.data[rows]
        expected[0::2] = rows
        out[1::2] = held_out_walks(rng, half, self.length)
        return out, expected

    # -- write stream -------------------------------------------------------

    def write_chunk(self, chunk: int) -> np.ndarray:
        """``CHUNK`` new z-normalised series to append."""
        rng = np.random.default_rng([self.seed + 2, chunk])
        return held_out_walks(rng, CHUNK, self.length)

    # -- verification set ---------------------------------------------------

    def verification_queries(self, count: int = 200) -> np.ndarray:
        """The fixed queries every path must answer identically."""
        rng = np.random.default_rng([self.seed + 1, 3])
        half = count // 2
        rows = rng.integers(0, self.n_series, size=half)
        near = self.data[rows] + rng.normal(0.0, NEAR_SIGMA, (half, self.length))
        return np.vstack([near, held_out_walks(rng, count - half, self.length)])


def make_inputs(seed: int, n_series: int = 50_000, length: int = 128) -> Inputs:
    """Generate the dataset of one run (not part of any timed interval)."""
    dataset = random_walk(n_series, length=length, seed=seed).z_normalized()
    probe_rows = np.random.default_rng([seed + 1, 0]).permutation(n_series)
    return Inputs(seed=seed, data=dataset.values, probe_rows=probe_rows)
