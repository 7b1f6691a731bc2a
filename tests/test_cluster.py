"""Unit tests for the compute pool: cache, RDWC, cluster assembly."""

import pytest

from repro.cluster import Cluster, IndexCache, RdwcCombiner
from repro.config import ClusterConfig, scale_budget
from repro.memory import make_addr
from repro.sim import Engine


class TestIndexCache:
    def test_get_put_roundtrip(self):
        cache = IndexCache(1000)
        cache.put(1, "node-a", 100)
        assert cache.get(1) == "node-a"
        assert cache.bytes_used == 100

    def test_miss_returns_none_and_counts(self):
        cache = IndexCache(1000)
        assert cache.get(5) is None
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = IndexCache(300)
        cache.put(1, "a", 100)
        cache.put(2, "b", 100)
        cache.put(3, "c", 100)
        cache.get(1)  # touch 1 so 2 becomes LRU
        cache.put(4, "d", 100)
        assert cache.get(2) is None
        assert cache.get(1) == "a"
        assert cache.evictions == 1

    def test_replace_updates_bytes(self):
        cache = IndexCache(1000)
        cache.put(1, "a", 100)
        cache.put(1, "a2", 300)
        assert cache.bytes_used == 300

    def test_oversized_entry_not_cached(self):
        cache = IndexCache(100)
        cache.put(1, "big", 500)
        assert cache.get(1) is None
        assert cache.bytes_used == 0

    def test_oversized_replacement_counts_as_eviction(self):
        cache = IndexCache(100)
        cache.put(1, "a", 60)
        assert cache.evictions == 0
        # Replacing a cached entry with an uncacheable image drops the
        # old entry — that loss must show up in the eviction counter.
        cache.put(1, "grown", 500)
        assert cache.get(1) is None
        assert cache.bytes_used == 0
        assert cache.evictions == 1

    def test_oversized_insert_without_displacement_not_an_eviction(self):
        cache = IndexCache(100)
        cache.put(1, "big", 500)
        assert cache.evictions == 0

    def test_unlimited_capacity(self):
        cache = IndexCache(None)
        for i in range(100):
            cache.put(i, i, 1 << 20)
        assert len(cache) == 100

    def test_invalidate(self):
        cache = IndexCache(1000)
        cache.put(1, "a", 100)
        assert cache.invalidate(1)
        assert not cache.invalidate(1)
        assert cache.get(1) is None
        assert cache.bytes_used == 0

    def test_hit_ratio(self):
        cache = IndexCache(1000)
        cache.put(1, "a", 10)
        cache.get(1)
        cache.get(2)
        assert cache.hit_ratio == pytest.approx(0.5)


class TestRdwc:
    def test_read_delegation_shares_result(self):
        engine = Engine()
        combiner = RdwcCombiner(engine)
        remote_calls = []
        results = []

        def remote_read():
            remote_calls.append(engine.now)
            yield engine.timeout(10.0)
            return "value"

        def client():
            value = yield from combiner.read("k", remote_read)
            results.append((engine.now, value))

        for _ in range(5):
            engine.process(client())
        engine.run()
        assert len(remote_calls) == 1  # one delegate
        assert results == [(10.0, "value")] * 5
        assert combiner.delegated_reads == 4

    def test_a_follower_arriving_mid_flight_runs_its_own_read(self):
        # A read that joined mid-flight could answer a value a write had
        # overwritten before the follower arrived: it reads for itself.
        engine = Engine()
        combiner = RdwcCombiner(engine)
        remote_calls = []
        results = []

        def remote_read():
            started = engine.now
            remote_calls.append(started)
            yield engine.timeout(10.0)
            return f"read at {started}"

        def client(arrival):
            yield engine.timeout(arrival)
            value = yield from combiner.read("k", remote_read)
            results.append((arrival, engine.now, value))

        for arrival in (0.0, 0.0, 4.0, 4.0, 12.0):
            engine.process(client(arrival))
        engine.run()
        assert remote_calls == [0.0, 4.0, 12.0]
        assert results == [(0.0, 10.0, "read at 0.0")] * 2 + [
            (4.0, 14.0, "read at 4.0")] * 2 + [(12.0, 22.0, "read at 12.0")]
        assert combiner.delegated_reads == 2

    def test_reads_of_distinct_keys_not_combined(self):
        engine = Engine()
        combiner = RdwcCombiner(engine)
        remote_calls = []

        def remote_read(tag):
            def gen():
                remote_calls.append(tag)
                yield engine.timeout(1.0)
                return tag
            return gen

        def client(tag):
            yield from combiner.read(tag, remote_read(tag))

        engine.process(client("a"))
        engine.process(client("b"))
        engine.run()
        assert sorted(remote_calls) == ["a", "b"]

    def test_sequential_reads_not_combined(self):
        engine = Engine()
        combiner = RdwcCombiner(engine)
        remote_calls = []

        def remote_read():
            remote_calls.append(engine.now)
            yield engine.timeout(1.0)
            return "v"

        def client():
            yield from combiner.read("k", remote_read)
            yield from combiner.read("k", remote_read)

        engine.process(client())
        engine.run()
        assert len(remote_calls) == 2

    def test_write_combining(self):
        engine = Engine()
        combiner = RdwcCombiner(engine)
        written = []

        def remote_write(value):
            def gen():
                yield engine.timeout(5.0)
                written.append(value)
                return True
            return gen

        def client(value):
            yield from combiner.write("k", value,
                                      lambda v: remote_write(v)())

        for value in ("v1", "v2", "v3"):
            engine.process(client(value))
        engine.run()
        # One remote write for three updates: the leader's value; the
        # absorbed followers' values are never written.
        assert written == ["v1"]
        assert combiner.combined_writes == 2

    def test_disabled_combiner_passes_through(self):
        engine = Engine()
        combiner = RdwcCombiner(engine, enabled=False)
        calls = []

        def remote_read():
            calls.append(1)
            yield engine.timeout(1.0)
            return "v"

        def client():
            yield from combiner.read("k", remote_read)

        engine.process(client())
        engine.process(client())
        engine.run()
        assert len(calls) == 2

    def test_delegate_failure_propagates_to_followers(self):
        engine = Engine()
        combiner = RdwcCombiner(engine)
        failures = []

        def remote_read():
            yield engine.timeout(1.0)
            raise RuntimeError("remote broke")

        def client():
            try:
                yield from combiner.read("k", remote_read)
            except RuntimeError:
                failures.append(engine.now)

        for _ in range(3):
            engine.process(client())
        engine.run()
        assert len(failures) == 3


class TestCluster:
    def test_topology(self):
        config = ClusterConfig(num_cns=3, num_mns=2, clients_per_cn=4)
        cluster = Cluster(config)
        assert len(cluster.cns) == 3
        assert len(cluster.mns) == 2
        assert cluster.total_clients == 12
        assert len(list(cluster.clients())) == 12

    def test_clients_have_distinct_rngs(self):
        cluster = Cluster(ClusterConfig(num_cns=2, clients_per_cn=2))
        draws = [client.rng.random() for client in cluster.clients()]
        assert len(set(draws)) == len(draws)

    def test_local_lock_shared_within_cn(self):
        cluster = Cluster(ClusterConfig(num_cns=2, clients_per_cn=2))
        addr = make_addr(0, 4096)
        cn0, cn1 = cluster.cns
        assert cn0.local_lock(addr) is cn0.local_lock(addr)
        assert cn0.local_lock(addr) is not cn1.local_lock(addr)

    def test_local_lock_leaves_the_table_once_free(self):
        """The table keeps a lock only while it is held or waited for; a
        release reaches the lock that was acquired."""
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=2))
        cn = cluster.cns[0]
        addr = make_addr(0, 4096)
        lock = cn.local_lock(addr)
        lock.acquire()
        waiter = lock.acquire()
        cn.release_local(addr, lock)  # handed to the waiter: still live
        assert waiter.triggered and lock.locked and cn.local_lock(addr) is lock
        cn.release_local(addr, lock)
        assert not lock.locked and addr not in cn._local_locks

    def test_a_write_run_leaves_no_local_lock_behind(self):
        from repro.bench.runner import PointSpec, run_workload
        config = ClusterConfig(num_cns=2, clients_per_cn=3, cache_bytes=1 << 22,
                               region_bytes=1 << 26, pipeline_depth=2)
        cluster, index, context = PointSpec("chime", "A", 2000, 80, config).prepare()
        result = run_workload(cluster, index, "A", 80, context)
        assert result.ops_completed == 480
        assert [cn._local_locks for cn in cluster.cns] == [{}, {}]

    def test_local_lock_disabled(self):
        cluster = Cluster(ClusterConfig(local_lock_table=False))
        assert cluster.cns[0].local_lock(123) is None

    def test_traffic_totals_aggregate(self):
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=2))
        clients = list(cluster.clients())
        addr = make_addr(0, 4096)

        def reader(client):
            yield from client.qp.read(addr, 64)

        for client in clients:
            cluster.engine.process(reader(client))
        cluster.run()
        totals = cluster.traffic_totals()
        assert totals.reads == 2
        assert totals.bytes_read == 128


class TestBudgetScaling:
    def test_scale_budget_linear(self):
        assert scale_budget(100 * 1024 * 1024, 60_000_000) == 100 * 1024 * 1024
        assert scale_budget(100 * 1024 * 1024, 6_000_000) == 10 * 1024 * 1024

    def test_scale_budget_floor(self):
        assert scale_budget(1024, 1) == 4096
