"""Tests for the simulated cluster engine: correctness of every operator
plus ledger accounting behaviour."""

import pytest

from repro.cluster import BlockStorage, CostModel, SimCluster, TaskFailedError
from repro.faults import active_plan


@pytest.fixture
def cluster() -> SimCluster:
    return SimCluster(n_workers=4)


class TestParallelize:
    def test_round_robin(self, cluster):
        data = cluster.parallelize(list(range(10)), n_partitions=3)
        assert [len(p) for p in data.partitions] == [4, 3, 3]
        assert sorted(data.collect()) == list(range(10))

    def test_default_partitions(self, cluster):
        data = cluster.parallelize([1, 2])
        assert data.n_partitions == cluster.n_workers

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            SimCluster(n_workers=0)


class TestMapOperators:
    def test_map(self, cluster):
        data = cluster.parallelize(list(range(6)), 2)
        out = data.map_partitions(lambda rs: [x * 10 for x in rs], label="x10")
        assert sorted(out.collect()) == [0, 10, 20, 30, 40, 50]

    def test_flat_map(self, cluster):
        # A partition function may emit more records than it was given.
        data = cluster.parallelize([1, 2], 1)
        out = data.map_partitions(
            lambda rs: [x for x in rs for _ in range(x)], label="rep"
        )
        assert sorted(out.collect()) == [1, 2, 2]

    def test_map_partitions(self, cluster):
        data = cluster.parallelize(list(range(8)), 2)
        out = data.map_partitions(lambda rs: [sum(rs)], label="sum")
        assert out.n_partitions == 2
        assert sum(out.collect()) == 28

    def test_filter(self, cluster):
        # ... or fewer.
        data = cluster.parallelize(list(range(10)), 3)
        out = data.map_partitions(
            lambda rs: [x for x in rs if x % 2 == 0], label="even"
        )
        assert sorted(out.collect()) == [0, 2, 4, 6, 8]

    def test_stage_recorded_in_ledger(self, cluster):
        data = cluster.parallelize(list(range(4)), 2)
        data.map_partitions(lambda rs: rs, label="noop")
        stage = cluster.ledger.stage("noop")
        assert stage.tasks == 2
        assert stage.wall_s > 0  # at least the task overheads


class TestReduceByKey:
    def test_word_count(self, cluster):
        words = ["a", "b", "a", "c", "b", "a"]
        data = cluster.parallelize([(w, 1) for w in words], 3)
        out = data.reduce_by_key(lambda x, y: x + y, label="count")
        assert dict(out.collect()) == {"a": 3, "b": 2, "c": 1}

    def test_custom_combine(self, cluster):
        data = cluster.parallelize([("k", 5), ("k", 3)], 2)
        out = data.reduce_by_key(max, label="max")
        assert dict(out.collect()) == {"k": 5}

    def test_substages_recorded(self, cluster):
        data = cluster.parallelize([("k", 1)], 1)
        data.reduce_by_key(lambda a, b: a + b, label="agg")
        labels = set(cluster.ledger.breakdown())
        assert {"agg/combine", "agg/shuffle", "agg/merge"} <= labels


class TestShuffle:
    def test_records_land_in_keyed_partition(self, cluster):
        data = cluster.parallelize(list(range(12)), 3)
        out = data.partition_by(
            lambda xs: [x % 4 for x in xs], n_partitions=4, label="mod"
        )
        for pid in range(4):
            assert all(x % 4 == pid for x in out.partitions[pid])
        assert sum(len(p) for p in out.partitions) == 12

    def test_out_of_range_partitioner_raises(self, cluster):
        data = cluster.parallelize([1], 1)
        with pytest.raises(ValueError, match="outside"):
            data.partition_by(
                lambda xs: [5] * len(xs), n_partitions=2, label="bad"
            )

    def test_invalid_partition_count(self, cluster):
        data = cluster.parallelize([1], 1)
        with pytest.raises(ValueError):
            data.partition_by(
                lambda xs: [0] * len(xs), n_partitions=0, label="bad"
            )

    def test_cross_node_bytes_charged(self):
        # 2 workers on 2 nodes: moving everything to partition 1 (worker 1,
        # node 1) from partition 0 (worker 0, node 0) crosses the network.
        cluster = SimCluster(n_workers=2, cost_model=CostModel(n_nodes=2))
        data = cluster.parallelize([1.0] * 100, 1)  # all in partition 0
        data.partition_by(
            lambda xs: [1] * len(xs), n_partitions=2, label="move"
        )
        assert cluster.ledger.stage("move").network_s > 0

    def test_same_node_bytes_free(self):
        # Single node: shuffles never touch the network.
        cluster = SimCluster(n_workers=4, cost_model=CostModel(n_nodes=1))
        data = cluster.parallelize(list(range(100)), 4)
        data.partition_by(
            lambda xs: [x % 4 for x in xs], n_partitions=4, label="move"
        )
        assert cluster.ledger.stage("move").network_s == 0.0

    def test_scatter_is_stable_in_source_partition_order(self, cluster):
        data = cluster.parallelize(list(range(40)), 4)
        out = data.partition_by(
            lambda xs: [x % 3 for x in xs], n_partitions=3, label="stable"
        )
        for pid in range(3):
            expected = [
                x for source in data.partitions for x in source
                if x % 3 == pid
            ]
            assert out.partitions[pid] == expected

    def test_destination_count_must_match(self, cluster):
        data = cluster.parallelize([1, 2], 1)
        with pytest.raises(ValueError, match="destinations"):
            data.partition_by(lambda xs: [0], n_partitions=2, label="short")

    def test_sizer_prices_only_remote_records(self):
        # Partition 0 lives on node 0; records bound for partition 1 (node
        # 1) are the only ones a sizer is asked about.
        seen = []

        def sizes(records):
            seen.extend(records)
            return [100] * len(records)

        cluster = SimCluster(n_workers=2, cost_model=CostModel(n_nodes=2))
        data = cluster.parallelize(list(range(10)), 1)
        data.partition_by(
            lambda xs: [x % 2 for x in xs], n_partitions=2, label="sized",
            nbytes_fn=sizes,
        )
        assert seen == [1, 3, 5, 7, 9]
        assert cluster.ledger.stage("sized").network_s == (
            cluster.cost_model.network_time(500)
        )


class TestStorageIntegration:
    def test_read_storage_one_partition_per_block(self, cluster):
        storage = BlockStorage.from_records(list(range(10)), block_capacity=3)
        data = cluster.read_storage(storage, label="read")
        assert data.n_partitions == 4
        assert sorted(data.collect()) == list(range(10))
        assert cluster.ledger.stage("read").io_s > 0

    def test_read_blocks_subset(self, cluster):
        storage = BlockStorage.from_records(list(range(10)), block_capacity=5)
        data = cluster.read_blocks(storage.blocks[:1], label="read")
        assert [len(p) for p in data.partitions] == [5]


class TestDriverAndBroadcast:
    def test_broadcast_returns_value_and_charges(self, cluster):
        b = cluster.broadcast({"x": list(range(1000))}, label="bcast")
        assert b.value["x"][0] == 0
        assert cluster.ledger.stage("bcast").network_s > 0

    def test_run_on_driver(self, cluster):
        result = cluster.run_on_driver(lambda: sum(range(100)), label="drv")
        assert result == 4950
        assert cluster.ledger.stage("drv").cpu_s >= 0

    def test_charge_disk_roundtrip(self, cluster):
        cluster.charge_disk_write(10 * 1024 * 1024, label="spill w")
        cluster.charge_disk_read(10 * 1024 * 1024, label="spill r")
        assert cluster.ledger.stage("spill w").io_s > 0
        assert cluster.ledger.stage("spill r").io_s > 0


class TestDeterminism:
    def test_pipeline_output_is_deterministic(self):
        def run() -> dict:
            cluster = SimCluster(n_workers=3)
            data = cluster.parallelize(list(range(50)), 5)
            pairs = data.map_partitions(
                lambda rs: [(x % 7, x) for x in rs], label="kv"
            )
            agg = pairs.reduce_by_key(lambda a, b: a + b, label="agg")
            return dict(agg.collect())

        assert run() == run()


class TestTaskExecution:
    """Stage tasks run inline, in task order, on the calling thread."""

    def test_wordcount_pipeline(self):
        cluster = SimCluster(n_workers=4)
        data = cluster.parallelize(["a", "b", "a", "c", "b", "a"] * 10, 6)
        counts = dict(
            data.map_partitions(lambda ws: [(w, 1) for w in ws], label="pair")
            .reduce_by_key(lambda a, b: a + b, label="count")
            .collect()
        )
        assert counts == {"a": 30, "b": 20, "c": 10}
        assert cluster.ledger.clock_s > 0

    def test_failure_injection_is_deterministic(self):
        plan = {"schema": "repro.faults/v1", "seed": 123, "rules": [
            {"kind": "task-crash", "attempt": [1, 2], "probability": 0.4},
        ]}

        def run() -> tuple[list, int]:
            cluster = SimCluster(n_workers=4)
            with active_plan(plan):
                out = cluster.parallelize(list(range(40)), 8).map_partitions(
                    lambda rs: [x + 1 for x in rs], label="inc"
                ).collect()
            return out, cluster.ledger.stages["inc"].tasks

        first, second = run(), run()
        assert sorted(first[0]) == list(range(1, 41))
        assert first[1] > 8  # some attempts crashed and were retried
        assert first == second

    def test_doomed_task_raises(self):
        plan = {"schema": "repro.faults/v1", "seed": 0,
                "retry": {"max_attempts": 2},
                "rules": [{"kind": "task-crash", "stage": "doomed"}]}
        cluster = SimCluster(n_workers=2)
        data = cluster.parallelize(list(range(8)), 4)
        with active_plan(plan):
            with pytest.raises(TaskFailedError, match="task 0 crashed 2"):
                data.map_partitions(lambda rs: rs, label="doomed")

    def test_lowest_index_error_wins(self, cluster):
        ran = []

        def explode(x):
            ran.append(x)
            if x in (2, 5, 7):
                raise ValueError(f"task {x}")
            return x

        data = cluster.parallelize(list(range(10)), 10)
        with pytest.raises(ValueError, match="task 2"):
            data.map_partitions(
                lambda rs: [explode(x) for x in rs], label="explode"
            )
        assert ran == [0, 1, 2]  # the stage stops at its first failure
