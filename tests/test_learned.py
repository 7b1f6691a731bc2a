"""Integration tests for CHIME-Learned (model-routed hopscotch leaves)."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core import LearnedChimeIndex
from repro.core.nodes import LeafNodeView
from repro.layout import StripedSpan


def make_index(num_keys=2000, future=()):
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=4,
                                    cache_bytes=1 << 24,
                                    region_bytes=1 << 25))
    index = LearnedChimeIndex(cluster)
    pairs = [(k, k * 10) for k in range(1, num_keys + 1)]
    index.bulk_load(pairs, future_keys=future)
    return cluster, index, pairs


def drive(cluster, *gens):
    results = [None] * len(gens)

    def wrap(i, gen):
        def runner():
            results[i] = yield from gen
        return runner()

    for i, gen in enumerate(gens):
        cluster.engine.process(wrap(i, gen))
    cluster.run()
    return results


class TestLearnedChime:
    def test_bulk_load_roundtrip(self):
        _cluster, index, pairs = make_index()
        assert index.collect_items() == pairs

    def test_point_ops(self):
        future = list(range(900_000, 900_100))
        cluster, index, _ = make_index(future=future)
        client = index.client(cluster.cns[0].clients[0])
        out = {}

        def gen():
            out["hit"] = yield from client.search(400)
            out["miss"] = yield from client.search(899_999)
            yield from client.insert(900_050, 11)
            out["ins"] = yield from client.search(900_050)
            yield from client.update(400, 99)
            out["upd"] = yield from client.search(400)
            out["del"] = yield from client.delete(401)
            out["gone"] = yield from client.search(401)

        drive(cluster, gen())
        assert out == {"hit": 4000, "miss": None, "ins": 11, "upd": 99,
                       "del": True, "gone": None}

    def test_pretrained_inserts_fill_reserved_slots(self):
        future = list(range(900_000, 900_400))
        cluster, index, pairs = make_index(future=future)
        client = index.client(cluster.cns[0].clients[0])

        def gen():
            for key in future:
                ok = yield from client.insert(key, key)
                assert ok

        drive(cluster, gen())
        items = dict(index.collect_items())
        for key in future:
            assert items[key] == key
        assert len(items) == len(pairs) + len(future)

    def test_untrained_keys_go_to_synonyms(self):
        cluster, index, _ = make_index()
        client = index.client(cluster.cns[0].clients[0])
        keys = list(range(5_000_000, 5_000_200))

        def gen():
            for key in keys:
                yield from client.insert(key, key)
            values = []
            for key in keys[::20]:
                values.append((yield from client.search(key)))
            return values

        values, = drive(cluster, gen())
        assert values == keys[::20]

    def test_concurrent_inserts(self):
        future = list(range(900_000, 900_400))
        cluster, index, _ = make_index(future=future)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        per = len(future) // len(clients)

        def worker(client, chunk):
            for key in chunk:
                yield from client.insert(key, key + 1)

        drive(cluster, *[worker(c, future[i * per:(i + 1) * per])
                         for i, c in enumerate(clients)])
        items = dict(index.collect_items())
        for key in future:
            assert items[key] == key + 1

    def test_reads_about_two_neighborhoods(self):
        """§5.3: search fetches one neighborhood per candidate leaf."""
        cluster, index, _ = make_index()
        cluster.cns[0].combiner.enabled = False
        client = index.client(cluster.cns[0].clients[0])
        before = client.qp.stats.bytes_read

        def gen():
            for key in range(100, 1100, 100):
                yield from client.search(key)

        drive(cluster, gen())
        per_search = (client.qp.stats.bytes_read - before) / 10
        # ~2 candidate neighborhoods of 8 entries: far below a ROLEX
        # ROLEX two-leaf read (~1 KB) but above CHIME's single neighborhood.
        assert 150 < per_search < 600

    def test_cache_bytes_model_plus_addrs(self):
        _cluster, index, _ = make_index()
        assert index.cache_bytes_needed() >= \
            8 * len(index.leaf_addrs)

    def test_model_error_bound_holds(self):
        _cluster, index, pairs = make_index()
        index.model.verify([k for k, _ in pairs])

    def test_key_no_candidate_covers_is_absent_in_one_pass(self):
        """Across a gap in the key space the model sends an untrained
        key to a leaf whose fences do not cover it.  Fences never move
        here, so that is an answer — it used to cost the whole retry
        budget (256 neighbourhood reads) to say ``None``."""
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = LearnedChimeIndex(cluster)
        index.bulk_load([(k, k) for k in [*range(1, 3001),
                                          *range(10**9, 10**9 + 200)]])
        client = index.client(cluster.cns[0].clients[0])
        key = 5 * 10**8
        leaf, = index.candidate_leaves(key)
        low, _high = LeafNodeView(index.leaf_layout, StripedSpan(
            index._host_read(index.leaf_addrs[leaf],
                             index.leaf_layout.raw_size))).replica_fences(0)
        assert key < low  # the one candidate does not cover the key
        assert drive(cluster, client.search(key)) == [None]
        assert client.qp.stats.rtts == 1

    @pytest.mark.parametrize("neighborhood", [2, 4])
    def test_narrow_neighbourhood_bulk_load_spills_to_synonyms(
            self, neighborhood):
        """Hopscotch cannot place a model-sized chunk of 44 keys at H = 2
        or 4 (bulk load used to die with a bare ``HashTableFullError``);
        what does not fit is loaded into synonym leaves chained from the
        base leaf, where searches, updates and inserts find it."""
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = LearnedChimeIndex(cluster, neighborhood=neighborhood)
        pairs = [(k, k * 10) for k in range(1, 3001)]
        index.bulk_load(pairs)
        assert index.collect_items() == pairs
        base = len(index.leaf_addrs) * index.leaf_layout.total_size
        assert cluster.mns[0].allocator.bytes_used > base  # synonyms exist
        client = index.client(cluster.cns[0].clients[0])

        def read_back():
            values = []
            for key, _value in pairs:
                values.append((yield from client.search(key)))
            return values

        values, = drive(cluster, read_back())
        assert values == [value for _key, value in pairs]

        def write():
            updated = yield from client.update(213, 7)  # used not to load
            inserted = yield from client.insert(5_000_000, 8)
            return (updated, inserted,
                    (yield from client.search(213)),
                    (yield from client.search(5_000_000)))

        assert drive(cluster, write()) == [(True, True, 7, 8)]
