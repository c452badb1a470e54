"""Model-based property tests: the cluster engine vs plain-list semantics.

Random pipelines of per-partition map / filter / flat-map steps
(``map_partitions``), ``partition_by`` and ``reduce_by_key`` run both on
the engine and on a naive list model; outputs must agree as multisets
(the engine guarantees no record ordering).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster

# Operation alphabet: (name, engine-step, model-step) pairs built below.
_OPS = st.sampled_from(["map", "filter", "flat_map", "repartition"])


@st.composite
def pipelines(draw):
    records = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=60))
    ops = draw(st.lists(_OPS, max_size=5))
    n_partitions = draw(st.integers(1, 6))
    return records, ops, n_partitions


def _apply(op: str, engine_data, model: list):
    if op == "map":
        return (
            engine_data.map_partitions(
                lambda xs: [x * 3 + 1 for x in xs], label="map"
            ),
            [x * 3 + 1 for x in model],
        )
    if op == "filter":
        return (
            engine_data.map_partitions(
                lambda xs: [x for x in xs if x % 2 == 0], label="filter"
            ),
            [x for x in model if x % 2 == 0],
        )
    if op == "flat_map":
        return (
            engine_data.map_partitions(
                lambda xs: [y for x in xs for y in (x, -x)], label="flat"
            ),
            [y for x in model for y in (x, -x)],
        )
    if op == "repartition":
        return (
            engine_data.partition_by(
                lambda xs: [abs(x) % 3 for x in xs], 3, label="part"
            ),
            model,
        )
    raise AssertionError(op)


class TestEngineAgainstModel:
    @given(pipelines())
    @settings(max_examples=80, deadline=None)
    def test_pipeline_matches_list_semantics(self, spec):
        records, ops, n_partitions = spec
        cluster = SimCluster(n_workers=3)
        engine_data = cluster.parallelize(records, n_partitions)
        model = list(records)
        for op in ops:
            engine_data, model = _apply(op, engine_data, model)
        assert Counter(engine_data.collect()) == Counter(model)

    @given(pipelines())
    @settings(max_examples=50, deadline=None)
    def test_reduce_by_key_matches_counter(self, spec):
        records, _ops, n_partitions = spec
        cluster = SimCluster(n_workers=3)
        pairs = cluster.parallelize(
            [(x % 5, 1) for x in records], n_partitions
        )
        reduced = dict(
            pairs.reduce_by_key(lambda a, b: a + b, label="agg").collect()
        )
        assert reduced == dict(Counter(x % 5 for x in records))

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=50),
        st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_shuffle_preserves_multiset(self, records, n_out):
        cluster = SimCluster(n_workers=4)
        data = cluster.parallelize(records, 3)
        shuffled = data.partition_by(
            lambda xs: [x % n_out for x in xs], n_out, label="s"
        )
        assert Counter(shuffled.collect()) == Counter(records)
        for pid, partition in enumerate(shuffled.partitions):
            assert all(x % n_out == pid for x in partition)

    @given(st.lists(st.integers(), min_size=0, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_ledger_clock_monotone(self, records):
        cluster = SimCluster(n_workers=2)
        data = cluster.parallelize(records, 2)
        before = cluster.ledger.clock_s
        data.map_partitions(lambda xs: xs, label="m").collect()
        assert cluster.ledger.clock_s >= before
