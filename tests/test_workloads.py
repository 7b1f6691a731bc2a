"""Unit tests for distributions and YCSB workload generation."""

import random
import tracemalloc
from array import array
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.faults.history import check_history
from repro.workloads.distributions import (
    Latest,
    ScrambledZipfian,
    Uniform,
    Zipfian,
    scramble,
)
from repro.workloads.ycsb import (
    INSERT,
    READ_MODIFY_WRITE,
    SCAN,
    SCAN_MAX,
    SEARCH,
    UPDATE,
    WORKLOADS,
    OpStream,
    WorkloadContext,
    WorkloadSpec,
    YCSB_A,
    YCSB_C,
    YCSB_D,
    YCSB_E,
    YCSB_F,
    YCSB_LOAD,
    _STREAM_CACHE,
    dataset,
    value_of,
)


class TestZipfian:
    def test_samples_in_range(self):
        rng = random.Random(1)
        zipf = Zipfian(1000, rng)
        for _ in range(2000):
            assert 0 <= zipf.sample() < 1000

    def test_rank_zero_most_popular(self):
        rng = random.Random(2)
        zipf = Zipfian(1000, rng)
        counts = Counter(zipf.sample() for _ in range(20_000))
        assert counts[0] == max(counts.values())
        assert counts[0] > counts.get(100, 0)

    def test_higher_theta_more_skew(self):
        def top1_share(theta):
            rng = random.Random(3)
            zipf = Zipfian(1000, rng, theta=theta)
            counts = Counter(zipf.sample() for _ in range(10_000))
            return counts[0] / 10_000

        assert top1_share(0.99) > top1_share(0.5)

    def test_bad_args(self):
        rng = random.Random(1)
        with pytest.raises(WorkloadError):
            Zipfian(0, rng)
        with pytest.raises(WorkloadError):
            Zipfian(10, rng, theta=1.5)

    def test_deterministic_given_seed(self):
        a = Zipfian(100, random.Random(7))
        b = Zipfian(100, random.Random(7))
        assert [a.sample() for _ in range(50)] == \
            [b.sample() for _ in range(50)]


class TestScramble:
    def test_in_range_and_spread(self):
        outputs = {scramble(rank, 10_000) for rank in range(1000)}
        assert all(0 <= x < 10_000 for x in outputs)
        assert len(outputs) > 950  # near-injective

    def test_scrambled_zipfian_hot_keys_scattered(self):
        rng = random.Random(5)
        dist = ScrambledZipfian(10_000, rng)
        counts = Counter(dist.sample() for _ in range(20_000))
        hot = [key for key, _ in counts.most_common(10)]
        assert max(hot) - min(hot) > 1000  # not clustered


class TestLatest:
    def test_favours_recent(self):
        rng = random.Random(6)
        latest = Latest(1000, rng)
        counts = Counter(latest.sample() for _ in range(20_000))
        newest = sum(counts[i] for i in range(900, 1000))
        oldest = sum(counts[i] for i in range(0, 100))
        assert newest > 3 * oldest

    def test_grow_extends_population(self):
        rng = random.Random(8)
        latest = Latest(10, rng)
        for _ in range(100):
            latest.grow()
        samples = [latest.sample() for _ in range(1000)]
        assert max(samples) > 50
        assert all(0 <= s < 110 for s in samples)


class TestUniform:
    def test_covers_range(self):
        rng = random.Random(9)
        uniform = Uniform(100, rng)
        seen = {uniform.sample() for _ in range(5000)}
        assert len(seen) == 100


class TestDataset:
    def test_dense(self):
        pairs = dataset(100)
        assert [k for k, _ in pairs] == list(range(1, 101))

    def test_sparse_sorted_unique(self):
        pairs = dataset(1000, key_space=1_000_000)
        keys = [k for k, _ in pairs]
        assert keys == sorted(set(keys))
        assert all(1 <= k <= 1_000_000 for k in keys)

    def test_sparse_deterministic(self):
        assert dataset(100, key_space=10_000, seed=3) == \
            dataset(100, key_space=10_000, seed=3)

    def test_key_space_validation(self):
        with pytest.raises(WorkloadError):
            dataset(100, key_space=50)

    @pytest.mark.parametrize("key_space", [0, 5_000])
    def test_reads_as_the_list_of_pairs_it_replaced(self, key_space):
        """``dict()``, ``list()``, iteration, indexing, slicing and ``==``
        see the sorted (key, value) list ``dataset`` returned before its
        pairs became columns, dense and sparse."""
        pairs = dataset(1_000, key_space=key_space, seed=4)
        if key_space:
            keys = sorted(random.Random(4).sample(range(1, key_space + 1), 1_000))
        else:
            keys = range(1, 1_001)
        old = [(key, key * 31 % 1_000_003 + 1) for key in keys]
        assert list(pairs) == old and [*iter(pairs)] == old
        assert dict(pairs) == dict(old)
        assert len(pairs) == 1_000 and pairs[0] == old[0] and pairs[-1] == old[-1]
        assert pairs[10:20] == old[10:20] and list(pairs[::-7]) == old[::-7]
        assert pairs == old and old == pairs and pairs == tuple(old)
        assert pairs != old[:-1] and pairs != [(0, 0)] * 1_000
        assert pairs[5] in pairs and pairs.index(pairs[5]) == 5

    def test_a_dense_dataset_allocates_no_pair(self):
        tracemalloc.start()
        try:
            pairs = dataset(100_000)
            allocated, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 100_000 and allocated < 1 << 20

    def test_the_history_checker_reads_it(self):
        pairs = dataset(200, key_space=1_000, seed=2)
        assert check_history([], pairs, pairs) == []
        key, value = pairs[3]
        assert check_history([], pairs, [*pairs[:3], (key, value + 1), *pairs[4:]])
        assert value == value_of(key)


class TestWorkloadSpecs:
    def test_fractions_validated(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("bad", read_fraction=0.6, update_fraction=0.6)

    def test_all_workloads_present(self):
        # A-E + LOAD are the paper's six; F is provided for completeness.
        assert set(WORKLOADS) == {"A", "B", "C", "D", "E", "F", "LOAD"}


class TestOpStreams:
    def make_context(self, spec, num_keys=1000, seed=1):
        return WorkloadContext(spec, list(range(1, num_keys + 1)), seed=seed)

    def test_c_is_read_only(self):
        context = self.make_context(YCSB_C)
        ops = list(context.stream(0, 500))
        assert all(op.kind == SEARCH for op in ops)
        assert all(1 <= op.key <= 1000 for op in ops)

    def test_a_mix_roughly_half(self):
        context = self.make_context(YCSB_A)
        ops = list(context.stream(0, 4000))
        updates = sum(1 for op in ops if op.kind == UPDATE)
        assert 0.4 < updates / len(ops) < 0.6

    def test_load_all_inserts_unique_keys(self):
        context = self.make_context(YCSB_LOAD)
        ops_a = list(context.stream(0, 300))
        ops_b = list(context.stream(1, 300))
        keys = [op.key for op in ops_a + ops_b]
        assert all(op.kind == INSERT for op in ops_a + ops_b)
        assert len(set(keys)) == len(keys)
        assert min(keys) > 1000  # above the loaded range

    def test_f_mixes_reads_and_rmw(self):
        context = self.make_context(YCSB_F)
        ops = list(context.stream(0, 2000))
        rmw = sum(1 for op in ops if op.kind == READ_MODIFY_WRITE)
        reads = sum(1 for op in ops if op.kind == SEARCH)
        assert 0.4 < rmw / len(ops) < 0.6
        assert rmw + reads == len(ops)

    def test_e_scan_lengths_bounded(self):
        context = self.make_context(YCSB_E)
        ops = list(context.stream(0, 2000))
        scans = [op for op in ops if op.kind == SCAN]
        assert scans
        assert all(1 <= op.scan_count <= SCAN_MAX for op in scans)

    def test_d_reads_cover_committed_inserts(self):
        context = self.make_context(YCSB_D, num_keys=100)
        # Simulate committed inserts, then check reads can hit them.
        for key in range(2000, 2050):
            context.commit_insert(key)
        stream = context.stream(0, 3000)
        read_keys = {op.key for op in stream if op.kind == SEARCH}
        assert read_keys & set(range(2000, 2050))

    def test_streams_deterministic_per_client(self):
        context_a = self.make_context(YCSB_A, seed=5)
        context_b = self.make_context(YCSB_A, seed=5)
        ops_a = [(op.kind, op.key) for op in context_a.stream(3, 200)]
        ops_b = [(op.kind, op.key) for op in context_b.stream(3, 200)]
        assert ops_a == ops_b

    def test_different_clients_different_streams(self):
        context = self.make_context(YCSB_A)
        ops_0 = [(op.kind, op.key) for op in context.stream(0, 200)]
        ops_1 = [(op.kind, op.key) for op in context.stream(1, 200)]
        assert ops_0 != ops_1

    @pytest.mark.parametrize("spec", [YCSB_A, YCSB_C], ids=["A", "C"])
    def test_a_memoized_stream_replays_the_ops_it_drew(self, spec):
        """A memoized stream keeps columns, not ops, and builds the same
        ops on every replay; a context over the same keys shares it."""
        context = WorkloadContext(spec, dataset(1000).key_column, seed=6)
        fresh = list(OpStream(context, 2, 300))
        assert list(context.stream(2, 300)) == fresh
        key = next(reversed(_STREAM_CACHE))
        kinds, *numbers = columns = _STREAM_CACHE[key]
        assert type(kinds) is bytes and {type(column) for column in numbers} == {array}
        again = WorkloadContext(spec, list(range(1, 1001)), seed=6)
        assert list(again.stream(2, 300)) == fresh
        assert next(reversed(_STREAM_CACHE)) == key and _STREAM_CACHE[key] is columns
        assert list(context.stream(2, 0)) == []

    def test_insert_keys_upto_matches_next_insert(self):
        context = self.make_context(YCSB_D)
        preview = context.insert_keys_upto(10)
        actual = [context.next_insert_key() for _ in range(10)]
        assert preview == actual
