"""Columnar block + batched-kernel equivalence suite.

The columnar refactor replaced per-entry scalar code (``decode_signature``
per record, ``mindist_paa_to_word`` per node, ``query_signature`` per
query, tuple-list ranking) with single batched numpy passes.  The scalar
kernels are retained as references; every test here pins a batched kernel
bit-for-bit against its scalar counterpart over hypothesis-generated
inputs — arbitrary word lengths, non-divisible series lengths, and every
cardinality depth — so a vectorization bug can never drift the answers.
"""

from __future__ import annotations

import mmap
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.batch import group_queries_by_partition
from repro.core.builder import build_tardis_index
from repro.core.columnar import _MAPPED_BYTES, ColumnarBlock, column_buffer
from repro.core.config import TardisConfig
from repro.core.isaxt import (
    batch_decode_signatures,
    decode_signature,
    signature_of_paa,
    signature_of_series,
)
from repro.core.local_index import build_local_partition
from repro.core.persistence import load_index, save_index
from repro.core.queries import RunningTopK, query_signature
from repro.tsdb import random_walk
from repro.tsdb.distance import (
    euclidean,
    mindist_paa_to_word,
    mindist_paa_to_words,
)
from repro.tsdb.paa import paa_transform
from repro.tsdb.sax import MAX_CARDINALITY_BITS, sax_symbols
from repro.tsdb.series import z_normalize

CFG = TardisConfig(word_length=8, cardinality_bits=4, l_max_size=10,
                   g_max_size=100)
LENGTH = 32


def make_records(n: int, seed: int = 0, length: int = LENGTH,
                 config: TardisConfig = CFG):
    rng = np.random.default_rng(seed)
    values = z_normalize(np.cumsum(rng.standard_normal((n, length)), axis=1))
    return [
        (signature_of_series(values[i], config.word_length,
                             config.cardinality_bits), i, values[i])
        for i in range(n)
    ], values


# ---------------------------------------------------------------------------
# ColumnarBlock structure


class TestColumnarBlock:
    def test_from_records_round_trip(self):
        records, values = make_records(40)
        block = ColumnarBlock.from_records(records, CFG.word_length)
        assert block.n_rows == 40
        assert block.clustered
        np.testing.assert_array_equal(block.values, values)
        for row, (sig, rid, series) in enumerate(records):
            assert block.signature_at(row) == sig
            got_sig, got_rid, got_series = block.entry_at(row)
            assert (got_sig, got_rid) == (sig, rid)
            np.testing.assert_array_equal(got_series, series)

    def test_unclustered_has_no_values(self):
        records, _ = make_records(10)
        block = ColumnarBlock.from_records(records, CFG.word_length,
                                           clustered=False)
        assert block.values is None
        assert not block.clustered
        assert block.entry_at(3)[2] is None

    def test_empty_block(self):
        block = ColumnarBlock.empty(CFG.word_length, LENGTH, clustered=True)
        assert block.n_rows == 0
        assert block.values.shape == (0, LENGTH)

    def test_symbols_match_scalar_decode(self):
        records, _ = make_records(30)
        block = ColumnarBlock.from_records(records, CFG.word_length)
        for row, (sig, _rid, _series) in enumerate(records):
            symbols, bits = decode_signature(sig, CFG.word_length)
            assert bits == CFG.cardinality_bits
            np.testing.assert_array_equal(block.symbols[row], symbols)

    def test_append_returns_next_row(self):
        records, _ = make_records(5)
        block = ColumnarBlock.from_records(records, CFG.word_length)
        sig, rid, series = records[0][0], 99, records[0][2]
        symbols, _bits = decode_signature(sig, CFG.word_length)
        row = block.append(sig, rid, series, symbols)
        assert row == 5
        assert block.n_rows == 6
        assert block.signature_at(row) == sig
        assert int(block.record_ids[row]) == 99

    def test_append_widens_signature_dtype(self):
        records, _ = make_records(3)
        block = ColumnarBlock.from_records(records, CFG.word_length)
        wide_sig = records[0][0] * 2  # longer than any stored signature
        symbols = np.zeros(CFG.word_length, dtype=np.uint32)
        row = block.append(wide_sig, 7, records[0][2], symbols)
        assert block.signature_at(row) == wide_sig  # not truncated
        assert block.signature_at(0) == records[0][0]  # others intact

    def test_plain_pickle_round_trip(self):
        """Pickling ships plain arrays — persistence and deepcopy rely
        on it."""
        records, _ = make_records(20)
        block = ColumnarBlock.from_records(records, CFG.word_length)
        clone = pickle.loads(pickle.dumps(block))
        np.testing.assert_array_equal(clone.values, block.values)
        np.testing.assert_array_equal(clone.record_ids, block.record_ids)
        np.testing.assert_array_equal(clone.signatures, block.signatures)
        np.testing.assert_array_equal(clone.symbols, block.symbols)


# ---------------------------------------------------------------------------
# One write body: append_rows == m x append == from_records

_COLUMN_NAMES = ("record_ids", "values", "signatures", "symbols")


def assert_blocks_equal(a: ColumnarBlock, b: ColumnarBlock) -> None:
    for name in _COLUMN_NAMES:
        left, right = getattr(a, name), getattr(b, name)
        if left is None or right is None:
            assert left is right, name
            continue
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


def columns_of(records):
    """The ``append_rows`` arguments for ``(signature, id, series)`` tuples."""
    signatures = [r[0] for r in records]
    symbols = np.array(
        [decode_signature(sig, CFG.word_length)[0] for sig in signatures],
        dtype=np.uint32,
    ).reshape(len(records), CFG.word_length)
    values = np.array([r[2] for r in records]).reshape(len(records), LENGTH)
    return signatures, [r[1] for r in records], values, symbols


class TestAppendRows:
    @given(
        n_base=st.integers(0, 30),
        m=st.integers(0, 40),
        clustered=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_append_rows_equals_appends_equals_from_records(
        self, n_base, m, clustered
    ):
        records, _ = make_records(n_base + m, seed=n_base)
        base, extra = records[:n_base], records[n_base:]
        batched = ColumnarBlock.from_records(base, CFG.word_length, clustered)
        first = batched.append_rows(*columns_of(extra))
        assert first == n_base
        one_by_one = ColumnarBlock.from_records(base, CFG.word_length, clustered)
        for (sig, rid, series), symbols in zip(extra, columns_of(extra)[3]):
            one_by_one.append(sig, rid, series, symbols)
        assert_blocks_equal(batched, one_by_one)
        assert batched.n_rows == one_by_one.n_rows == n_base + m
        if records:
            assert_blocks_equal(
                batched,
                ColumnarBlock.from_records(records, CFG.word_length, clustered),
            )

    def test_widened_signature_column(self):
        """A longer signature widens the column for both spellings alike
        and leaves a view taken before it untouched."""
        records, _ = make_records(6)
        wide = [(sig * 2, 100 + rid, series) for sig, rid, series in records[:3]]
        zeros = np.zeros((3, CFG.word_length), dtype=np.uint32)
        batched = ColumnarBlock.from_records(records, CFG.word_length)
        held = batched.signatures
        values = columns_of(records[:3])[2]
        batched.append_rows([r[0] for r in wide], [r[1] for r in wide],
                            values, zeros)
        one_by_one = ColumnarBlock.from_records(records, CFG.word_length)
        for (sig, rid, series), symbols in zip(wide, zeros):
            one_by_one.append(sig, rid, series, symbols)
        assert_blocks_equal(batched, one_by_one)
        assert batched.signatures.dtype.itemsize == 2 * held.dtype.itemsize
        assert batched.signatures.tolist() == (
            [r[0] for r in records] + [r[0] for r in wide]
        )
        assert held.tolist() == [r[0] for r in records]

    def test_empty_block_takes_its_first_rows(self):
        records, values = make_records(7)
        block = ColumnarBlock.empty(CFG.word_length, series_length=0)
        assert block.append_rows(*columns_of(records)) == 0
        assert_blocks_equal(
            block, ColumnarBlock.from_records(records, CFG.word_length)
        )
        np.testing.assert_array_equal(block.values, values)

    def test_clustered_block_needs_the_series(self):
        records, _ = make_records(3)
        block = ColumnarBlock.from_records(records, CFG.word_length)
        signatures, rids, _values, symbols = columns_of(records)
        with pytest.raises(ValueError):
            block.append_rows(signatures, rids, None, symbols)
        assert block.n_rows == 3

    def test_held_views_survive_appends_and_regrows(self):
        """A reader's view is never written again: later rows land past
        its end, and a regrow copies into a new buffer."""
        records, _ = make_records(1_020)
        block = ColumnarBlock.from_records(records[:20], CFG.word_length)
        held = {name: getattr(block, name) for name in _COLUMN_NAMES}
        frozen = {name: view.copy() for name, view in held.items()}
        buffers = set()
        for (sig, rid, series), symbols in zip(
            records[20:], columns_of(records[20:])[3]
        ):
            block.append(sig, rid, series, symbols)
            buffers.add(id(block.values.base))
        assert len(buffers) >= 3  # 20 -> 1,020 rows takes several regrows
        assert block.n_rows == 1_020
        for name in _COLUMN_NAMES:
            np.testing.assert_array_equal(held[name], frozen[name])
            assert held[name].shape == frozen[name].shape
        assert_blocks_equal(
            block, ColumnarBlock.from_records(records, CFG.word_length)
        )

    def test_round_trips_after_appends_are_exact_length(self):
        records, _ = make_records(900, length=LENGTH)
        block = ColumnarBlock.from_records(records[:500], CFG.word_length)
        block.append_rows(*columns_of(records[500:]))
        assert len(block.values.base) > block.n_rows  # spare capacity exists
        assert block.nbytes == ColumnarBlock.from_records(
            records, CFG.word_length
        ).nbytes
        plain = pickle.dumps(block)
        assert len(plain) < 1.05 * block.nbytes + 4096  # capacity not shipped
        clone = pickle.loads(plain)
        assert_blocks_equal(clone, block)
        assert clone.n_rows == 900
        # A clone appends like any block (its arrays are its buffers).
        clone.append_rows(*columns_of(records[:2]))
        assert clone.n_rows == 902 and block.n_rows == 900

    def test_symbol_index_follows_appends(self):
        records, _ = make_records(12)
        block = ColumnarBlock.from_records(records[:10], CFG.word_length)
        bits = CFG.cardinality_bits
        first = block.symbol_index(bits)
        assert block.symbol_index(bits) is first  # reused without an append
        block.append_rows(*columns_of(records[10:]))
        second = block.symbol_index(bits)
        assert second is not first and len(second) == 12
        np.testing.assert_array_equal(second[:10], first)
        assert block.symbol_index(bits) is second


# ---------------------------------------------------------------------------
# Large column buffers: one private anonymous mapping each

_MAPS = hasattr(mmap, "MAP_PRIVATE")
_STATUS = Path("/proc/self/status")


def mapping_of(array: np.ndarray):
    """The ``mmap`` an array's memory lives in, or None."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return base if isinstance(base, mmap.mmap) else None


def grown_block(n: int = 900) -> ColumnarBlock:
    """A block whose value buffer was grown by an append: 500 rows from
    ``from_records``, the rest appended (256 B a row)."""
    records, _ = make_records(n)
    block = ColumnarBlock.from_records(records[:500], CFG.word_length)
    block.append_rows(*columns_of(records[500:]))
    return block


@pytest.mark.skipif(not _MAPS, reason="no mmap.MAP_PRIVATE on this platform")
class TestColumnBuffers:
    def test_only_large_buffers_are_mapped(self):
        assert mapping_of(column_buffer((4, 32), np.float64)) is None
        small = column_buffer((_MAPPED_BYTES // 8 - 1,), np.float64)
        assert mapping_of(small) is None
        large = column_buffer((_MAPPED_BYTES // 256, 32), np.float64)
        assert mapping_of(large) is not None
        assert large.shape == (_MAPPED_BYTES // 256, 32)
        assert large.flags.writeable and large.flags.c_contiguous

    def test_grown_and_built_values_are_mapped(self):
        block = grown_block()
        assert mapping_of(block._buffers["values"]) is not None
        assert mapping_of(block.values) is not None
        records, _ = make_records(600)
        built = ColumnarBlock.from_records(records, CFG.word_length)
        assert mapping_of(built.values) is not None  # 600 x 256 B
        assert mapping_of(built.record_ids) is None  # 600 x 8 B

    def test_grown_block_pickles_its_exact_length_views(self):
        block = grown_block()
        assert len(block._buffers["values"]) > block.n_rows
        state = block.__getstate__()
        assert {len(column) for column in state.values()} == {900}
        clone = pickle.loads(pickle.dumps(block))
        assert_blocks_equal(clone, block)
        assert clone.n_rows == block.n_rows == 900

    @pytest.mark.skipif(
        sys.platform != "linux", reason="fork semantics checked on Linux"
    )
    def test_forked_child_writes_do_not_reach_the_parent(self, tmp_path):
        """``MAP_PRIVATE``: after a fork the child's pages are
        copy-on-write.  A shared mapping would hand the child's write to
        the parent's rows."""
        grown = grown_block()
        data = random_walk(1_200, length=64, seed=4).z_normalized()
        save_index(
            build_tardis_index(data, TardisConfig(g_max_size=2_000)), tmp_path
        )
        (loaded,) = load_index(tmp_path).partitions.values()
        targets = [grown._buffers["values"], loaded.block.values]
        assert all(mapping_of(target) is not None for target in targets)
        before = [target.copy() for target in targets]
        pid = os.fork()
        if pid == 0:  # the child: write, check it sees its write, leave
            code = 1
            try:
                for target in targets:
                    target[...] = -7.0
                code = 0 if all((t == -7.0).all() for t in targets) else 2
            finally:
                os._exit(code)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        for target, copy in zip(targets, before):
            np.testing.assert_array_equal(target, copy)

    @pytest.mark.skipif(
        not _STATUS.exists(), reason="reads VmRSS from /proc/self/status"
    )
    def test_dropped_grown_blocks_give_their_memory_back(self):
        """64 blocks of 128 KiB of values grown past 1 MB each (8 KB
        rows, 16 rows an append, in turn), then dropped: resident memory
        comes back to where it started.

        Run in a fresh interpreter, whose heap has no history: there a
        freed 16 MB temporary (as a load frees) lifts glibc's mmap
        threshold above every value buffer, and a small array kept from
        every round, standing for what a server allocates between
        appends and keeps, would pin heap-allocated buffers below it.
        """
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )}
        child = subprocess.run(
            [sys.executable, "-c", _GROW_AND_DROP], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        start, grown, after = map(float, child.stdout.split())
        assert grown - start > 48  # the 64 MB of rows were resident
        assert after - start < 4, (start, grown, after)


#: The body of ``test_dropped_grown_blocks_give_their_memory_back``;
#: prints ``VmRSS`` in MB before, at the peak and after the drop.
_GROW_AND_DROP = """
import gc
from pathlib import Path
import numpy as np
from repro.core.columnar import ColumnarBlock
from repro.core.isaxt import signature_of_series
from repro.tsdb.series import z_normalize

def vm_rss_mb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024

rng = np.random.default_rng(0)
series = z_normalize(np.cumsum(rng.standard_normal((16, 1024)), axis=1))
records = [(signature_of_series(row, 8, 4), i, row) for i, row in enumerate(series)]
rows = ColumnarBlock.from_records(records, 8)
kept = []
np.ones(1 << 21).sum()
gc.collect()
start = vm_rss_mb()
blocks = [ColumnarBlock.from_records(records, 8) for _ in range(64)]
while blocks[0].values.nbytes < 1 << 20:
    for block in blocks:
        block.append_rows(
            rows.signatures, rows.record_ids, rows.values, rows.symbols
        )
    kept.append(np.ones(512))
grown = vm_rss_mb()
del blocks, block
gc.collect()
print(start, grown, vm_rss_mb())
"""


# ---------------------------------------------------------------------------
# Batched kernels == scalar references


@st.composite
def word_setup(draw):
    """(word_length, bits, paa matrix) with arbitrary shapes."""
    w = draw(st.sampled_from([4, 8, 12, 16]))
    bits = draw(st.integers(1, MAX_CARDINALITY_BITS))
    n = draw(st.integers(1, 12))
    paa = draw(
        st.lists(
            st.lists(
                st.floats(-3.5, 3.5, allow_nan=False, width=32),
                min_size=w, max_size=w,
            ),
            min_size=n, max_size=n,
        )
    )
    return w, bits, np.asarray(paa, dtype=np.float64)


class TestBatchDecodeEquivalence:
    @given(word_setup())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_decode(self, setup):
        w, bits, paa = setup
        signatures = [signature_of_paa(row, bits) for row in paa]
        symbols, got_bits = batch_decode_signatures(signatures, w)
        assert got_bits == bits
        assert symbols.shape == (len(signatures), w)
        for i, sig in enumerate(signatures):
            ref_symbols, ref_bits = decode_signature(sig, w)
            assert ref_bits == bits
            np.testing.assert_array_equal(symbols[i], ref_symbols)

    def test_empty_batch(self):
        symbols, bits = batch_decode_signatures([], 8)
        assert symbols.shape == (0, 8)

    def test_ragged_bit_depths_rejected(self):
        a = signature_of_paa(np.zeros(4), 2)
        b = signature_of_paa(np.zeros(4), 3)
        with pytest.raises(ValueError):
            batch_decode_signatures([a, b], 4)


class TestBatchMindistEquivalence:
    @given(word_setup(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_mindist(self, setup, qseed):
        w, bits, paa = setup
        # Series length deliberately not divisible by w half the time.
        n_length = w * 4 + (qseed % 3)
        rng = np.random.default_rng(qseed)
        query_paa = rng.standard_normal(w)
        words = sax_symbols(paa, bits)
        batched = mindist_paa_to_words(query_paa, words, bits, n_length)
        assert batched.shape == (len(words),)
        for i in range(len(words)):
            scalar = mindist_paa_to_word(query_paa, words[i], bits, n_length)
            assert batched[i] == pytest.approx(scalar, abs=1e-12)

    def test_empty_words(self):
        out = mindist_paa_to_words(np.zeros(4), np.zeros((0, 4), dtype=np.uint32),
                                   2, 16)
        assert out.shape == (0,)


class TestBatchConversionEquivalence:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_group_conversion_matches_query_signature(self, tardis_tiny, seed):
        rng = np.random.default_rng(seed)
        queries = z_normalize(
            np.cumsum(rng.standard_normal((6, LENGTH)), axis=1)
        )
        groups, converted = group_queries_by_partition(tardis_tiny, queries)
        assert len(converted) == len(queries)
        for i, (sig, paa) in enumerate(converted):
            ref_sig, ref_paa = query_signature(tardis_tiny, queries[i])
            assert sig == ref_sig
            np.testing.assert_array_equal(paa, ref_paa)
        # Grouping covers every query exactly once, routed consistently.
        routed = sorted(i for idx in groups.values() for i in idx)
        assert routed == list(range(len(queries)))
        for pid, idx in groups.items():
            for i in idx:
                assert tardis_tiny.global_index.route(converted[i][0]) == pid

    def test_empty_batch(self, tardis_tiny):
        groups, converted = group_queries_by_partition(
            tardis_tiny, np.zeros((0, LENGTH))
        )
        assert groups == {} and converted == []


@pytest.fixture(scope="module")
def tardis_tiny():
    from repro.tsdb import random_walk

    dataset = random_walk(400, length=LENGTH, seed=11).z_normalized()
    return build_tardis_index(dataset, CFG)


class TestTopKEquivalence:
    @given(st.integers(0, 1000), st.integers(1, 15))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_ranking(self, seed, k):
        records, values = make_records(60, seed=5)
        partition = build_local_partition(0, records, CFG)
        rng = np.random.default_rng(seed)
        query = z_normalize(np.cumsum(rng.standard_normal(LENGTH)))
        rows = np.arange(partition.block.n_rows)
        top = RunningTopK(k)
        top.score(query, partition, rows)
        got = top.neighbors()
        # Scalar reference: python sort on (distance, record_id).
        scored = sorted(
            (euclidean(query, values[i]), i) for i in range(len(values))
        )[:k]
        assert [n.record_id for n in got] == [rid for _d, rid in scored]
        assert [n.distance for n in got] == pytest.approx(
            [d for d, _rid in scored]
        )

    def test_empty_rows(self):
        records, _ = make_records(5)
        partition = build_local_partition(0, records, CFG)
        top = RunningTopK(3)
        top.score(np.zeros(LENGTH), partition, np.array([], dtype=np.int64))
        assert top.neighbors() == [] and top.scored == 0
