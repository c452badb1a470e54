"""Open-loop load against a running ``repro serve`` or ``serve-sharded``.

``run_open`` (perf/driver.py) sends ``--rate`` requests a second for
``--duration`` s on a seeded Poisson schedule over ``--concurrency``
connections, and times each from when it was due.  A request is a kNN over
one of 64 seeded rows of ``--data`` or, at probability ``--write-mix``, a
``write_batch`` of ``--write-data`` rows.  The JSON report counts reads (a
degraded answer is completed *and* degraded) and, under a mix, writes::

    python tools/load.py --port 7827 --data rw.npz --rate 200 --duration 1
"""

import argparse
import json
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for sub in ("src", "perf"):
    sys.path.insert(0, str(ROOT / sub))

import numpy as np  # noqa: E402
from driver import percentile, run_open  # noqa: E402

from repro.serving.server import ServingClient  # noqa: E402
from repro.tsdb.io import read_npz_dataset  # noqa: E402

QUERY_POOL = 64


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add = parser.add_argument
    add("--host", default="127.0.0.1")
    add("--port", type=int, required=True)
    add("--data", required=True, help="dataset .npz whose rows are queried")
    add("--rate", type=float, default=50.0, help="requests a second")
    add("--duration", type=float, default=5.0, help="seconds of schedule")
    add("--concurrency", type=int, default=8, help="connections")
    add("--strategy", default="target-node")
    add("--k", type=int, default=10)
    add("--seed", type=int, default=0)
    add("--write-mix", type=float, default=0.0, help="share of write batches")
    add("--write-data", help="dataset .npz whose rows are appended (default --data)")
    add("--write-batch", type=int, default=1, help="rows per write batch")
    args = parser.parse_args(argv)

    values = read_npz_dataset(args.data).values
    pool = np.random.default_rng(args.seed).integers(len(values), size=QUERY_POOL)
    queries = values[pool]
    writes = read_npz_dataset(args.write_data).values if args.write_data else values
    # Request index -> kind and end ("-error" until it returns); write -> rows acked.
    outcome, acked = {}, {}

    def make_step(client):
        def step(i: int) -> bool:
            rng = np.random.default_rng([args.seed, i])
            if rng.random() < args.write_mix:
                outcome[i] = "write-error"
                rows = writes[rng.integers(len(writes), size=args.write_batch)]
                acked[i] = len(client.write_batch(rows)["record_ids"])
                outcome[i] = "write"
            else:
                outcome[i] = "read-error"
                reply = client.knn(queries[rng.integers(QUERY_POOL)],
                                   k=args.k, strategy=args.strategy)
                outcome[i] = "degraded" if reply.get("degraded") else "read"
            return True
        return step

    with ExitStack() as stack:
        clients = [stack.enter_context(ServingClient(args.host, args.port))
                   for _ in range(args.concurrency)]
        result = run_open([make_step(c) for c in clients], rate=args.rate,
                          duration_s=args.duration, seed=args.seed)

    count = Counter(outcome.values())
    read_s = [result.latencies[i] for i, o in outcome.items()
              if o in ("read", "degraded")]
    report = {
        "sent": count["read"] + count["degraded"] + count["read-error"],
        "completed": count["read"] + count["degraded"],
        "errors": count["read-error"],
        "degraded": count["degraded"],
        "read_ms": {f"p{p}": percentile(read_s, p) * 1e3 for p in (50, 95, 99)}
        if read_s else None,
        "lateness_p99_ms": percentile(result.lateness, 99) * 1e3,
    }
    if args.write_mix > 0:
        report["writes"] = {"sent": count["write"] + count["write-error"],
                            "completed": count["write"], "errors": count["write-error"],
                            "records": sum(acked.values())}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
