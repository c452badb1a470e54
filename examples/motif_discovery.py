#!/usr/bin/env python
"""Motif discovery in a long recording via subsequence indexing.

Scenario: a single long sensor recording (think an industrial vibration
channel) contains a short pattern that recurs at unknown positions.  The
classic index-based approach: slice the recording into overlapping
windows, index them, and use kNN on any window to find its recurrences —
which is exactly the subsequence workflow the paper's DNA dataset
represents (one genome divided into fixed-length subsequences).

The script plants a motif at known offsets inside a noisy recording,
builds a TARDIS index over the sliding windows, queries with the motif
shape, and checks the hits land on the planted offsets.  Trivial
self-matches (overlapping windows) are filtered with the standard
exclusion-zone rule.

Run with::

    python examples/motif_discovery.py
"""

import numpy as np

from repro.core import TardisConfig, build_tardis_index, knn_multi_partitions_access
from repro.tsdb.series import z_normalize
from repro.tsdb.windows import sliding_windows

WINDOW = 64
RECORDING_LENGTH = 40_000
PLANTED_OFFSETS = (3_200, 11_520, 18_048, 26_880, 35_136)


def make_recording(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A noisy AR(1) recording with a damped-oscillation motif planted."""
    noise = np.empty(RECORDING_LENGTH)
    noise[0] = rng.standard_normal()
    steps = rng.standard_normal(RECORDING_LENGTH)
    for i in range(1, RECORDING_LENGTH):
        noise[i] = 0.7 * noise[i - 1] + steps[i]
    t = np.arange(WINDOW) / WINDOW
    motif = 8.0 * np.sin(6 * np.pi * t) * np.exp(-1.0 * t)
    recording = noise.copy()
    for offset in PLANTED_OFFSETS:
        jitter = 0.3 * rng.standard_normal(WINDOW)
        recording[offset : offset + WINDOW] += motif + jitter
    return recording, motif


def main() -> None:
    rng = np.random.default_rng(13)
    recording, motif = make_recording(rng)
    print(f"recording: {RECORDING_LENGTH:,} points; "
          f"motif planted at offsets {PLANTED_OFFSETS}")

    windows = sliding_windows(recording, window=WINDOW, step=4,
                              name="vibration-windows")
    print(f"indexing {len(windows):,} sliding windows of {WINDOW} points")
    index = build_tardis_index(windows, TardisConfig())
    print(f"index: {len(index.partitions)} partitions")

    # Query with the clean motif shape.
    query = z_normalize(recording[PLANTED_OFFSETS[0]:
                                  PLANTED_OFFSETS[0] + WINDOW])
    answer = knn_multi_partitions_access(index, query, k=60)

    # Exclusion zone: collapse overlapping hits to one per region.
    hits: list[tuple[int, float]] = []
    for neighbor in answer.neighbors:
        offset = neighbor.record_id
        if all(abs(offset - kept) >= WINDOW for kept, _d in hits):
            hits.append((offset, neighbor.distance))
        if len(hits) == len(PLANTED_OFFSETS):
            break

    print("\ntop non-overlapping matches:")
    found = 0
    for offset, distance in hits:
        nearest_plant = min(PLANTED_OFFSETS, key=lambda p: abs(p - offset))
        is_hit = abs(offset - nearest_plant) < WINDOW // 2
        found += int(is_hit)
        marker = "<- planted" if is_hit else ""
        print(f"  offset {offset:>7,}  distance {distance:.3f} {marker}")
    print(f"\napproximate search recovered {found}/{len(PLANTED_OFFSETS)} "
          "planted motif sites")
    if found < len(PLANTED_OFFSETS) - 1:
        raise SystemExit("motif recovery degraded — investigate")

    # Approximate search only probes sibling partitions; a planted site
    # whose window landed elsewhere can be missed.  Exact search
    # (guaranteed complete) closes the gap.
    from repro.core import knn_exact

    exact = knn_exact(index, query, k=60)
    exact_hits: list[int] = []
    for neighbor in exact.neighbors:
        offset = neighbor.record_id
        if all(abs(offset - kept) >= WINDOW for kept in exact_hits):
            exact_hits.append(offset)
        if len(exact_hits) == len(PLANTED_OFFSETS):
            break
    exact_found = sum(
        1
        for offset in exact_hits
        if min(abs(offset - p) for p in PLANTED_OFFSETS) < WINDOW // 2
    )
    print(
        f"exact search recovered {exact_found}/{len(PLANTED_OFFSETS)} "
        f"(loaded {exact.partitions_loaded}/{len(index.partitions)} partitions)"
    )
    if exact_found != len(PLANTED_OFFSETS):
        raise SystemExit("exact search must recover every planted site")


if __name__ == "__main__":
    main()
