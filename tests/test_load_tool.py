"""``tools/load.py``: the open-loop load script CI drives live servers with.

Both runs go through the script's ``main()`` against in-process servers,
so the counts the CI gates read are checked against what the server saw.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import TardisConfig, build_tardis_index, read_wal
from repro.serving import QueryService, TardisServer
from repro.sharding import RouterIndex, RouterService, ShardCluster
from repro.tsdb import random_walk
from repro.tsdb.io import write_npz_dataset

TOOL = Path(__file__).resolve().parents[1] / "tools" / "load.py"


@pytest.fixture(scope="module")
def load_main():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("load_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.path[:] = saved  # the script put perf/ first; keep it to the script
    return module.main


def run_load(main, capsys, port: int, *flags: str) -> dict:
    assert main(["--port", str(port), *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_mixed_load_counts_every_request(load_main, capsys, tmp_path):
    base = random_walk(400, length=32, seed=3).z_normalized()
    write_npz_dataset(base, tmp_path / "base.npz")
    write_npz_dataset(random_walk(50, length=32, seed=4).z_normalized(),
                      tmp_path / "writes.npz")
    index = build_tardis_index(base, TardisConfig(g_max_size=100, l_max_size=20))
    wal = tmp_path / "load.wal"
    with TardisServer(QueryService(index, wal=wal), "127.0.0.1", 0) as server:
        report = run_load(
            load_main, capsys, server.address[1],
            "--data", str(tmp_path / "base.npz"), "--rate", "100",
            "--duration", "1", "--concurrency", "4", "--write-mix", "0.3",
            "--write-data", str(tmp_path / "writes.npz"), "--write-batch", "4",
        )
    writes = report["writes"]
    assert report["sent"] + writes["sent"] == 100
    assert report["sent"] == report["completed"] > 0
    assert report["errors"] == 0 and report["degraded"] == 0
    assert writes["sent"] == writes["completed"] > 0
    assert writes["errors"] == 0
    assert writes["records"] == writes["completed"] * 4
    # The records counted are the records the server logged and holds.
    logged, torn = read_wal(wal)
    assert not torn
    assert sum(r["kind"] == "append" for r in logged) == writes["records"]
    assert index.n_records == 400 + writes["records"]


def test_lost_shard_shows_as_degraded(load_main, capsys, tmp_path,
                                      tardis_small, rw_small):
    """At R = 0 a killed shard's partitions are gone: multi-partitions
    answers that need them come back degraded, and the report says so
    (the sharded CI job gates on ``degraded == 0``)."""
    write_npz_dataset(rw_small, tmp_path / "rw.npz")
    with ShardCluster.for_index(
        tardis_small, 3, 0, mode="threads",
        service_kwargs={"result_cache_size": None},
    ) as cluster:
        router = RouterService(
            RouterIndex.from_index(tardis_small), cluster.plan,
            cluster.addresses, result_cache_size=None,
            health_interval_s=0.0, call_timeout_s=5.0,
        )
        with TardisServer(router, "127.0.0.1", 0) as server:
            cluster.kill_shard(0)
            report = run_load(
                load_main, capsys, server.address[1],
                "--data", str(tmp_path / "rw.npz"), "--rate", "40",
                "--duration", "1", "--concurrency", "4",
                "--strategy", "multi-partitions",
            )
    assert report["completed"] == report["sent"] == 40
    assert report["errors"] == 0
    assert report["degraded"] > 0
    assert "writes" not in report
