#!/usr/bin/env python
"""1-NN time series classification over an indexed training set.

Scenario: the classic UCR-archive workflow — classify test series by the
label of their nearest training neighbor — but with the training set
behind a TARDIS index instead of a linear scan.  Exact kNN
gives the identical classifier (1-NN-ED) while loading only the
partitions the lower bound cannot exclude; the approximate strategies
give a faster, slightly noisier classifier.

The script synthesizes a 3-class dataset of characteristic shapes (UCR
files load the same way via ``repro.tsdb.io.read_ucr``), writes it in UCR
format, reads it back, indexes the training split, and reports accuracy
and partition loads per query strategy.

Run with::

    python examples/ucr_classification.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    TardisConfig,
    build_tardis_index,
    knn_exact,
    knn_multi_partitions_access,
    knn_target_node_access,
)
from repro.tsdb.io import read_ucr
from repro.tsdb.series import z_normalize

LENGTH = 64
PER_CLASS = 2000
N_TEST = 150


def synthesize_ucr_file(path: Path, rng: np.random.Generator) -> None:
    """Write a 3-class shape dataset in UCR format (label, values...)."""
    t = np.arange(LENGTH) / LENGTH
    prototypes = {
        1: np.sin(2 * np.pi * t),                     # one cycle
        2: np.sign(np.sin(4 * np.pi * t)) * 0.8,      # square-ish
        3: 2 * np.abs(2 * (t - np.floor(t + 0.5))),   # triangle
    }
    lines = []
    for label, prototype in prototypes.items():
        for _ in range(PER_CLASS + N_TEST // 3):
            warp = 1.0 + 0.1 * rng.standard_normal()
            noisy = warp * prototype + 0.9 * rng.standard_normal(LENGTH)
            values = ",".join(f"{v:.6f}" for v in noisy)
            lines.append(f"{label},{values}")
    rng.shuffle(lines)
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    rng = np.random.default_rng(21)
    with tempfile.TemporaryDirectory() as tmp:
        ucr_path = Path(tmp) / "Shapes3_TRAIN.txt"
        synthesize_ucr_file(ucr_path, rng)
        dataset, labels = read_ucr(ucr_path)
    print(f"loaded {len(dataset):,} series from UCR format, "
          f"{len(set(labels.tolist()))} classes")

    # Split: last N_TEST rows are the test set.
    train = dataset.subset(np.arange(len(dataset) - N_TEST))
    train = train.z_normalized()
    train_labels = labels[: len(train)]
    test_values = z_normalize(dataset.values[len(train):])
    test_labels = labels[len(train):]

    index = build_tardis_index(train, TardisConfig())
    print(f"indexed training set: {len(index.partitions)} partitions")

    strategies = [
        ("exact 1-NN", lambda q: knn_exact(index, q, 1)),
        ("target-node 1-NN", lambda q: knn_target_node_access(index, q, 1)),
        ("multi-partitions 1-NN",
         lambda q: knn_multi_partitions_access(index, q, 1)),
    ]
    label_of = {int(rid): int(train_labels[i])
                for i, rid in enumerate(train.record_ids)}

    print(f"\nclassifying {N_TEST} held-out series:")
    exact_accuracy = None
    for name, classify in strategies:
        correct = 0
        loads = 0
        for values, truth in zip(test_values, test_labels):
            answer = classify(values)
            predicted = label_of[answer.record_ids[0]]
            correct += int(predicted == int(truth))
            loads += answer.partitions_loaded
        accuracy = correct / len(test_values)
        if exact_accuracy is None:
            exact_accuracy = accuracy
        print(f"  {name:<22} accuracy {accuracy:6.1%}   "
              f"avg partitions/query {loads / len(test_values):.1f}")

    if exact_accuracy < 0.9:
        raise SystemExit("exact 1-NN accuracy collapsed — investigate")


if __name__ == "__main__":
    main()
