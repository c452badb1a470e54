#!/usr/bin/env python
"""Operations tour: the full lifecycle of a TARDIS deployment.

Walks one index through everything an operator does between rebuilds:

1. build and validate,
2. persist to disk, reload, re-validate,
3. model a hot-partition cache (simulated loads) and explain a query,
4. absorb a skewed stream of inserts (plus a deletion),
5. rebalance the overflowed partitions,
6. answer with a *certified* prefix — provably-exact leading neighbors.

Run with::

    python examples/operations_tour.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    TardisConfig,
    build_tardis_index,
    certified_prefix,
    exact_match,
    explain,
    knn_multi_partitions_access,
    load_index,
    save_index,
)
from repro.tsdb import random_walk
from repro.tsdb.series import z_normalize


def main() -> None:
    rng = np.random.default_rng(11)

    # 1. Build + validate.
    dataset = random_walk(15_000, length=128, seed=2).z_normalized()
    index = build_tardis_index(dataset, TardisConfig())
    index.validate()
    print(f"built: {index.n_records:,} series in {len(index.partitions)} "
          f"partitions (validated)")

    # 2. Persist, reload, re-validate.
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "prod-index"
        save_index(index, target)
        files = sum(1 for _ in target.rglob("*") if _.is_file())
        index = load_index(target)
        index.validate()
        print(f"persisted + reloaded: {files} files, still valid")

    # 3. Model a hot-partition cache (simulated loads); explain one query.
    cache = index.enable_cache(8)
    query = z_normalize(np.cumsum(rng.standard_normal(128)))
    for _ in range(3):  # warm the cache on this query's partitions
        answer = knn_multi_partitions_access(index, query, 10)
    print(f"\ncache after warm-up: hit rate {cache.hit_rate:.0%}")
    print(explain(answer))

    # 4. Maintenance: a skewed insert stream plus one deletion.
    hot = random_walk(2, length=128, seed=900).z_normalized()
    for i in range(6_000):
        base = hot.values[i % 2]
        noisy = base + rng.normal(0, 0.4, size=base.shape)
        index.insert_series(z_normalize(noisy))
    assert index.delete_series(dataset.values[100], 100)
    worst = max(p.n_records for p in index.partitions.values())
    print(f"\nafter +6,000 skewed inserts: hottest partition {worst} records "
          f"(capacity {index.config.partition_capacity})")

    # 5. Rebalance and re-validate.
    report = index.rebalance()
    index.validate()
    worst_after = max(p.n_records for p in index.partitions.values())
    print(f"rebalanced: split {report.partitions_split} partitions, created "
          f"{report.partitions_created}, hottest now {worst_after}")

    # 6. Certified answering.
    answer = knn_multi_partitions_access(index, query, 10,
                                         pth=len(index.partitions))
    m = certified_prefix(index, query, answer)
    print(f"\nfull-coverage query: {m}/10 answers certified exactly correct")
    if m != 10:
        raise SystemExit("full coverage must certify the whole answer")

    # The deleted record must be gone; a fresh insert must be findable.
    assert 100 not in exact_match(index, dataset.values[100]).record_ids
    print("deletion verified; tour complete")


if __name__ == "__main__":
    main()
