"""Integration tests for the baseline indexes (Sherman, Marlin, SMART,
ROLEX) on the simulated DM cluster."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.marlin import MarlinIndex
from repro.baselines.pla import PlaModel
from repro.baselines.rolex import RolexIndex
from repro.baselines.sherman import ShermanIndex
from repro.baselines.smart import SmartConfig, SmartIndex
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.faults import FaultPlan
from repro.registry import build_index
from tests.oracles import drive_legal, writers_and_readers


def make_cluster(**overrides):
    defaults = dict(num_cns=1, num_mns=1, clients_per_cn=4,
                    cache_bytes=1 << 24, region_bytes=1 << 25)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def drive(cluster, *generators):
    results = [None] * len(generators)

    def wrap(i, gen):
        def runner():
            results[i] = yield from gen
        return runner()

    for i, gen in enumerate(generators):
        cluster.engine.process(wrap(i, gen))
    cluster.run()
    return results


PAIRS = [(k, k * 10) for k in range(1, 2001)]


def build(index_cls, cluster, **kwargs):
    index = index_cls(cluster, **kwargs)
    if index_cls is RolexIndex:
        index.bulk_load(PAIRS, future_keys=range(900_000, 901_000))
    else:
        index.bulk_load(PAIRS)
    return index


ALL_INDEXES = [ShermanIndex, MarlinIndex, SmartIndex, RolexIndex]


@pytest.mark.parametrize("index_cls", ALL_INDEXES,
                         ids=["sherman", "marlin", "smart", "rolex"])
class TestFunctionalBattery:
    """Every baseline must pass the same functional contract as CHIME."""

    def test_bulk_load_roundtrip(self, index_cls):
        cluster = make_cluster()
        index = build(index_cls, cluster)
        assert index.collect_items() == PAIRS

    def test_point_ops(self, index_cls):
        cluster = make_cluster()
        index = build(index_cls, cluster)
        client = index.client(cluster.cns[0].clients[0])
        out = {}

        def gen():
            out["hit"] = yield from client.search(400)
            out["miss"] = yield from client.search(899_999)
            yield from client.insert(900_001, 11)
            out["ins"] = yield from client.search(900_001)
            yield from client.update(400, 99)
            out["upd"] = yield from client.search(400)
            out["del"] = yield from client.delete(401)
            out["gone"] = yield from client.search(401)

        drive(cluster, gen())
        assert out == {"hit": 4000, "miss": None, "ins": 11, "upd": 99,
                       "del": True, "gone": None}

    def test_scan(self, index_cls):
        cluster = make_cluster()
        index = build(index_cls, cluster)
        client = index.client(cluster.cns[0].clients[0])

        def gen():
            return (yield from client.scan(500, 40))

        rows, = drive(cluster, gen())
        assert [k for k, _ in rows] == list(range(500, 540))
        assert all(v == k * 10 for k, v in rows)

    def test_insert_many_then_verify(self, index_cls):
        cluster = make_cluster()
        index = build(index_cls, cluster)
        client = index.client(cluster.cns[0].clients[0])
        keys = list(range(900_000, 900_600))

        def gen():
            for key in keys:
                yield from client.insert(key, key + 5)

        drive(cluster, gen())
        items = dict(index.collect_items())
        for key in keys:
            assert items[key] == key + 5
        assert len(items) == len(PAIRS) + len(keys)

    def test_concurrent_disjoint_inserts(self, index_cls):
        cluster = make_cluster(num_cns=2, clients_per_cn=4)
        index = build(index_cls, cluster)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        keys = list(range(900_000, 900_800))
        per = len(keys) // len(clients)

        def worker(client, chunk):
            for key in chunk:
                yield from client.insert(key, key + 1)

        drive_legal(cluster, index, PAIRS,
                    *[worker(c, keys[i * per:(i + 1) * per])
                      for i, c in enumerate(clients)])

    def test_concurrent_read_write_consistency(self, index_cls):
        cluster = make_cluster(num_cns=1, clients_per_cn=6)
        index = build(index_cls, cluster)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        drive_legal(cluster, index, PAIRS, *writers_and_readers(
            clients, 100, lambda c, lane, i: c.insert(900_000 + lane * 500 + i, i),
            200, lambda rng: rng.randrange(1, 2001)))

    def test_cache_accounting_positive(self, index_cls):
        cluster = make_cluster()
        index = build(index_cls, cluster)
        assert index.cache_bytes_needed() > 0
        assert index.remote_memory_bytes() > 0


class TestReadAmplificationContrast:
    """The paper's core observation: bytes fetched per lookup differ by
    design class (Fig. 1 / Fig. 3a)."""

    @staticmethod
    def bytes_per_search(index, cluster, keys):
        client = index.client(cluster.cns[0].clients[0])

        def warm():
            yield from client.search(keys[0])

        drive(cluster, warm())
        before = client.qp.stats.bytes_read

        def gen():
            for key in keys:
                yield from client.search(key)

        drive(cluster, gen())
        return (client.qp.stats.bytes_read - before) / len(keys)

    def test_smart_reads_least_sherman_most(self):
        keys = list(range(100, 1100, 100))
        results = {}
        for name, cls in (("sherman", ShermanIndex), ("smart", SmartIndex),
                          ("rolex", RolexIndex)):
            cluster = make_cluster(rdwc=False)
            index = build(cls, cluster)
            results[name] = self.bytes_per_search(index, cluster, keys)
        # SMART is KV-discrete: near-minimal bytes.  Sherman fetches the
        # whole span-64 leaf.  ROLEX fetches ~2 span-16 leaves.
        assert results["smart"] < results["rolex"] < results["sherman"]

    def test_chime_between_smart_and_sherman(self):
        from repro.core.chime import ChimeIndex
        keys = list(range(100, 1100, 100))
        cluster = make_cluster(rdwc=False)
        chime = ChimeIndex(cluster)
        chime.bulk_load(PAIRS)
        chime_bytes = self.bytes_per_search(chime, cluster, keys)
        cluster2 = make_cluster(rdwc=False)
        sherman_bytes = self.bytes_per_search(
            build(ShermanIndex, cluster2), cluster2, keys)
        assert chime_bytes < sherman_bytes / 3  # neighborhood << leaf


class TestCacheConsumptionContrast:
    def test_smart_needs_far_more_cache(self):
        """Fig. 14: KV-discrete indexes cache an address per item."""
        from repro.core.chime import ChimeIndex
        big_pairs = [(k, k) for k in range(1, 20_001)]
        cluster = make_cluster(region_bytes=1 << 26)
        smart = SmartIndex(cluster)
        smart.bulk_load(big_pairs)
        cluster2 = make_cluster(region_bytes=1 << 26)
        chime = ChimeIndex(cluster2)
        chime.bulk_load(big_pairs)
        cluster3 = make_cluster(region_bytes=1 << 26)
        rolex = RolexIndex(cluster3)
        rolex.bulk_load(big_pairs)
        smart_cache = smart.cache_bytes_needed()
        chime_cache = chime.cache_bytes_needed()
        rolex_cache = rolex.cache_bytes_needed()
        assert smart_cache > 4 * chime_cache
        assert smart_cache > 4 * rolex_cache


class TestSmartSpecifics:
    def test_random_key_distribution(self):
        cluster = make_cluster(region_bytes=1 << 26)
        index = SmartIndex(cluster)
        rng = random.Random(17)
        keys = sorted(rng.sample(range(1, 1 << 48), 5000))
        index.bulk_load([(k, k) for k in keys])
        assert [k for k, _ in index.collect_items()] == keys
        assert index.height() <= 8

    def test_scan_on_sparse_keys(self):
        cluster = make_cluster(region_bytes=1 << 26)
        index = SmartIndex(cluster)
        rng = random.Random(23)
        keys = sorted(rng.sample(range(1, 1 << 40), 2000))
        index.bulk_load([(k, k * 2) for k in keys])
        client = index.client(cluster.cns[0].clients[0])
        start = keys[500]

        def gen():
            return (yield from client.scan(start, 30))

        rows, = drive(cluster, gen())
        assert [k for k, _ in rows] == keys[500:530]

    def test_rcu_updates(self):
        cluster = make_cluster()
        index = SmartIndex(cluster, SmartConfig(rcu_updates=True,
                                                value_size=64))
        index.bulk_load(PAIRS)
        client = index.client(cluster.cns[0].clients[0])

        def gen():
            yield from client.update(100, 777)
            return (yield from client.search(100))

        value, = drive(cluster, gen())
        assert value == 777

    def test_node_upgrades_preserve_items(self):
        """Dense sibling keys force Node4 -> Node16 -> Node48 upgrades."""
        cluster = make_cluster(region_bytes=1 << 26)
        index = SmartIndex(cluster)
        index.bulk_load([(1, 1), (2, 2)])
        client = index.client(cluster.cns[0].clients[0])
        keys = [0x0100 + i for i in range(200)]  # shared upper bytes

        def gen():
            for key in keys:
                yield from client.insert(key, key)

        drive(cluster, gen())
        items = dict(index.collect_items())
        for key in keys:
            assert items[key] == key

    @pytest.mark.parametrize("name", ["smart", "smart-opt", "smart-rcu"])
    def test_a_scan_survives_a_lost_verb(self, name):
        """The fabric loses the scan's batched leaf READ: the scan runs
        again whole and answers as if nothing was lost.  The loss used
        to escape the scan as a ``FaultInjectedError``."""
        cluster = make_cluster(clients_per_cn=1)
        index = build_index(name, cluster)
        index.bulk_load(PAIRS)
        injector = cluster.install_faults(FaultPlan(seed=1).drop(
            1.0, kinds=["read_batch"], max_count=1))
        client = index.client(cluster.cns[0].clients[0])
        assert drive(cluster, client.scan(100, 20)) == [
            [(key, key * 10) for key in range(100, 120)]]
        assert injector.counters == {"fault.loss": 1}


class TestPlaModel:
    def test_error_bound_on_uniform_keys(self):
        keys = list(range(0, 100_000, 7))
        model = PlaModel.train(keys, epsilon=16)
        model.verify(keys)

    def test_error_bound_on_clustered_keys(self):
        rng = random.Random(5)
        keys = sorted(rng.sample(range(1, 1 << 40), 20_000))
        model = PlaModel.train(keys, epsilon=16)
        model.verify(keys)

    def test_linear_keys_need_one_segment(self):
        keys = list(range(0, 10_000, 4))
        model = PlaModel.train(keys, epsilon=4)
        assert len(model.segments) == 1

    def test_tighter_epsilon_more_segments(self):
        rng = random.Random(9)
        keys = sorted(rng.sample(range(1, 1 << 32), 5000))
        loose = PlaModel.train(keys, epsilon=64)
        tight = PlaModel.train(keys, epsilon=4)
        assert len(tight.segments) >= len(loose.segments)

    @given(st.lists(st.integers(min_value=1, max_value=1 << 40),
                    unique=True, min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_error_bound_property(self, keys):
        keys = sorted(keys)
        model = PlaModel.train(keys, epsilon=8)
        model.verify(keys)

    def test_empty_model(self):
        model = PlaModel.train([], epsilon=8)
        assert model.predict(42) == 0

    def test_predict_clamps(self):
        keys = list(range(100, 200))
        model = PlaModel.train(keys, epsilon=8)
        assert model.predict(0) >= 0
        assert model.predict(1 << 60) <= len(keys) - 1


class TestRolexSpecifics:
    def test_candidate_window_typically_two_leaves(self):
        """Paper §3.1: ROLEX fetches ~2 leaves per lookup (error=span)."""
        cluster = make_cluster()
        index = build(RolexIndex, cluster)
        widths = [len(index.candidate_leaves(k)) for k, _ in PAIRS[::50]]
        assert max(widths) <= 4
        assert sum(widths) / len(widths) >= 1.5

    def test_untrained_keys_use_synonym_chains(self):
        cluster = make_cluster()
        index = build(RolexIndex, cluster)
        client = index.client(cluster.cns[0].clients[0])
        keys = list(range(3_000_000, 3_000_040))

        def gen():
            for key in keys:
                yield from client.insert(key, key)
            values = []
            for key in keys:
                values.append((yield from client.search(key)))
            return values

        values, = drive(cluster, gen())
        assert values == keys
        assert max(index.synonym_chain_lengths()) > 1

    @pytest.mark.parametrize("op", ["search", "insert", "scan"])
    @pytest.mark.parametrize("name", ["rolex", "rolex-indirect"])
    def test_one_lost_batched_read_is_read_again(self, name, op):
        """The fabric loses the op's first doorbell-batched READ: the op
        runs again whole and answers as if nothing was lost.  The loss
        used to escape the op as a ``FaultInjectedError``."""
        cluster = make_cluster(clients_per_cn=1)
        index = build_index(name, cluster)
        index.bulk_load(PAIRS, future_keys=range(900_000, 901_000))
        injector = cluster.install_faults(FaultPlan(seed=1).drop(
            1.0, kinds=["read_batch"], max_count=1))
        client = index.client(cluster.cns[0].clients[0])

        def insert_then_search():
            assert (yield from client.insert(900_500, 7)) is True
            return (yield from client.search(900_500))

        gen, expected = {
            "search": (client.search(100), 1000),
            "insert": (insert_then_search(), 7),
            "scan": (client.scan(100, 20),
                     [(key, key * 10) for key in range(100, 120)]),
        }[op]
        assert drive(cluster, gen) == [expected]
        assert injector.counters == {"fault.loss": 1}


class TestMarlinSpecifics:
    def test_concurrent_same_leaf_updates(self):
        cluster = make_cluster(num_cns=2, clients_per_cn=4,
                               local_lock_table=False)
        index = build(MarlinIndex, cluster)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        # Adjacent keys live in the same leaf; each update takes its
        # lock, as Sherman's does.
        def worker(client, key):
            for i in range(10):
                ok = yield from client.update(key, 1000 + i)
                assert ok

        drive_legal(cluster, index, PAIRS,
                    *[worker(c, 10 + i) for i, c in enumerate(clients)])

    def test_values_are_indirect(self):
        cluster = make_cluster()
        index = build(MarlinIndex, cluster)
        assert index.config.indirect_values
