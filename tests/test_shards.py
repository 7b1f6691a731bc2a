"""Tests for multi-MN key-space sharding.

Covers the shard map (:mod:`repro.cluster.shards`), the per-shard root
slots (:class:`repro.memory.PartitionedAllocator`), the sharded index facade
(:mod:`repro.core.sharded`), the registry guard for model-routed
families, shard-aware chaos, and the xpmt spec-hash stability rules.
"""

import ast
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.bench import Scale, run_point
from repro.cluster import Cluster
from repro.cluster.shards import ShardMap, partition_pairs
from repro.config import ClusterConfig
from repro.errors import ConfigError, WorkloadError
from repro.faults import CHAOS_CLUSTER, FaultPlan, run_chaos
from repro.layout import MAX_KEY
from repro.memory import addr_mn, make_addr
from repro.registry import build_index, get_family

TINY = Scale(name="tiny", num_keys=900, ops_per_client=30,
             client_sweep=[4], clients=4, nic_scale=8.0, seed=11)

#: One index per family (as the pinned YCSB-C points of
#: ``tests/test_golden_families.py``), golden-tested below.
GOLDEN_FAMILIES = ("chime", "sherman", "rolex", "smart")


def sharded_config(num_shards=4, num_mns=2, num_cns=2, clients_per_cn=2):
    return ClusterConfig(num_cns=num_cns, num_mns=num_mns,
                         clients_per_cn=clients_per_cn,
                         cache_bytes=1 << 22, region_bytes=1 << 25,
                         num_shards=num_shards)


def make_sharded(num_keys=2000, **kwargs):
    from repro.core.sharded import ShardedIndex
    cluster = Cluster(sharded_config(**kwargs))
    index = ShardedIndex(cluster, get_family("chime"))
    pairs = [(k, k * 10) for k in range(1, num_keys + 1)]
    index.bulk_load(pairs)
    return cluster, index, pairs


def drive(cluster, *generators):
    """Run client coroutines to completion, returning their results."""
    results = [None] * len(generators)

    def wrap(i, gen):
        def runner():
            results[i] = yield from gen
        return runner()

    for i, gen in enumerate(generators):
        cluster.engine.process(wrap(i, gen))
    cluster.run()
    return results


class TestShardMap:
    def test_even_carve_covers_key_domain(self):
        smap = ShardMap(4, 2)
        assert smap.bounds[0] == 0 and smap.bounds[-1] == MAX_KEY
        assert smap.shard_of(0) == 0
        assert smap.shard_of(MAX_KEY) == 3
        for shard in range(4):
            assert smap.shard_of(smap.bounds[shard]) == shard

    def test_home_and_owner_round_robin(self):
        # Homes go round-robin over the MNs; no CN owns a shard.
        smap = ShardMap(4, 2)
        assert smap.home == [0, 1, 0, 1]
        assert [smap.mn_of(shard) for shard in range(4)] == smap.home
        assert not hasattr(smap, "owner")

    def test_rebuild_bounds_balances_items(self):
        smap = ShardMap(4, 2)
        # A key distribution crammed into a tiny prefix of the domain:
        # the even carve would put everything in shard 0.
        keys = list(range(1, 1001))
        smap.rebuild_bounds(keys)
        buckets = partition_pairs([(k, 0) for k in keys], smap)
        sizes = [len(b) for b in buckets]
        assert min(sizes) >= max(sizes) - 1

    def test_rebuild_is_idempotent_on_epoch(self):
        smap = ShardMap(4, 2)
        keys = list(range(1, 101))
        smap.rebuild_bounds(keys)
        bounds = list(smap.bounds)
        smap.rebuild_bounds(keys)
        assert smap.bounds == bounds

    def test_single_shard_never_rebuilds(self):
        smap = ShardMap(1, 1)
        smap.rebuild_bounds(list(range(1, 50)))
        assert smap.bounds == [0, MAX_KEY]
        assert smap.shard_of(12345) == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardMap(0, 1)

    @staticmethod
    def _per_key(pairs, smap):
        """The oracle: one ``shard_of`` call per key."""
        buckets = [[] for _ in range(smap.num_shards)]
        for key, value in pairs:
            buckets[smap.shard_of(key)].append((key, value))
        return buckets

    @pytest.mark.parametrize("bounds,keys", [
        # Keys equal to a bound open that bound's shard.
        ([0, 10, 20, 30, MAX_KEY], [1, 9, 10, 19, 20, 29, 30, 31]),
        # An empty shard (two equal bounds) and an empty middle range.
        ([0, 10, 10, 40, MAX_KEY], [1, 10, 11, 39, 40]),
        ([0, 10, 20, 30, MAX_KEY], [1, 2, 25, 26]),
        # The last shard takes everything from its bound on, MAX_KEY too.
        ([0, 5, 6, 7, MAX_KEY], [7, 8, MAX_KEY - 1, MAX_KEY]),
        ([0, 5, 6, 7, MAX_KEY], []),
    ])
    def test_partition_matches_shard_of_per_key(self, bounds, keys):
        smap = ShardMap(4, 2)
        smap.bounds = bounds
        pairs = [(key, key * 3) for key in keys]
        assert partition_pairs(pairs, smap) == self._per_key(pairs, smap)

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.integers(1, 200), unique=True, max_size=60),
           shards=st.integers(1, 6),
           cuts=st.lists(st.integers(0, 210), min_size=5, max_size=5))
    def test_partition_matches_shard_of_on_any_bounds(self, keys, shards,
                                                      cuts):
        keys.sort()
        pairs = [(key, -key) for key in keys]
        smap = ShardMap(shards, 2)
        smap.rebuild_bounds(keys)  # the quantile carve of a bulk load
        assert partition_pairs(pairs, smap) == self._per_key(pairs, smap)
        smap.bounds = [0] + sorted(cuts[:shards - 1]) + [MAX_KEY]
        assert partition_pairs(pairs, smap) == self._per_key(pairs, smap)


class TestPartitionedAllocator:
    def test_single_mn_root_slot_matches_legacy_offset(self):
        cluster = Cluster(sharded_config(num_shards=1, num_mns=1))
        alloc = cluster.partitioned_allocator
        # Legacy clusters reserve offset 8 for the root pointer; the
        # sharded path must hand out the very same global address.
        assert alloc.root_addr(0) == make_addr(0, 8) == 8

    def test_root_slots_advance_per_mn(self):
        cluster = Cluster(sharded_config(num_shards=4, num_mns=2))
        alloc = cluster.partitioned_allocator
        smap = cluster.shard_map
        # Shards 0 and 2 share mn0: first slot 8, second slot 16.
        assert alloc.root_addr(0) == make_addr(smap.home[0], 8)
        assert alloc.root_addr(2) == make_addr(smap.home[2], 16)
        assert alloc.root_addr(1) == make_addr(smap.home[1], 8)


class TestGoldenIdentity:
    """num_shards=1 must be event-for-event identical to the legacy path."""

    @pytest.mark.parametrize("name", GOLDEN_FAMILIES)
    def test_single_shard_reproduces_legacy_point(self, name):
        legacy = run_point(name, "C", TINY.num_keys, TINY.ops_per_client,
                           TINY.cluster_config(num_shards=0),
                           key_space=TINY.key_space)
        sharded = run_point(name, "C", TINY.num_keys, TINY.ops_per_client,
                            TINY.cluster_config(num_shards=1),
                            key_space=TINY.key_space)
        assert sharded.summary() == legacy.summary()

    def test_single_shard_scan_workload_identical(self):
        legacy = run_point("chime", "E", TINY.num_keys, TINY.ops_per_client,
                           TINY.cluster_config(num_shards=0),
                           key_space=TINY.key_space)
        sharded = run_point("chime", "E", TINY.num_keys, TINY.ops_per_client,
                            TINY.cluster_config(num_shards=1),
                            key_space=TINY.key_space)
        assert sharded.summary() == legacy.summary()


class TestCrossShardScan:
    @classmethod
    def setup_class(cls):
        cls.cluster, cls.index, cls.pairs = make_sharded(num_keys=2000)
        cls.client = cls.index.client(cls.cluster.cns[0].clients[0])

    def scan(self, key, count):
        def op():
            return (yield from self.client.scan(key, count))
        return drive(self.cluster, op())[0]

    def test_scan_crossing_a_shard_boundary(self):
        boundary = self.cluster.shard_map.bounds[1]
        rows = self.scan(boundary - 10, 25)
        expected = [(k, k * 10) for k in range(boundary - 10,
                                               boundary + 15)]
        assert rows == expected

    def test_scan_spanning_every_shard(self):
        rows = self.scan(1, 2000)
        assert rows == self.pairs

    @settings(max_examples=25, deadline=None)
    @given(key=st.integers(min_value=1, max_value=2100),
           count=st.integers(min_value=1, max_value=160))
    def test_scan_matches_sorted_slice(self, key, count):
        rows = self.scan(key, count)
        expected = [(k, v) for k, v in self.pairs if k >= key][:count]
        assert rows == expected
        assert rows == sorted(rows)


class TestShardByShardScan:
    """A scan continues shard by shard: it returns what one unsharded
    index loaded with the same pairs returns, and a scan that ends
    inside its first shard issues no verb to another shard's MN."""

    #: Sparse keys, so a shard bound is not a key's neighbour + 1.
    PAIRS = [(k * 7, k) for k in range(1, 1601)]

    @classmethod
    def setup_class(cls):
        cls.sharded = cls._loaded(num_shards=4)
        cls.flat = cls._loaded(num_shards=0)

    @classmethod
    def _loaded(cls, num_shards):
        cluster = Cluster(sharded_config(num_shards=num_shards, num_mns=4))
        index = build_index("chime", cluster)
        index.bulk_load(cls.PAIRS)
        return cluster, index.client(cluster.cns[0].clients[0])

    @staticmethod
    def scan(loaded, key, count):
        cluster, client = loaded

        def op():
            return (yield from client.scan(key, count))
        with obs.recording() as rec:
            rows = drive(cluster, op())[0]
        return rows, {addr_mn(verb.addr) for trace in rec.ops()
                      for verb in trace.verbs}

    @pytest.mark.parametrize("before,count", [
        (1, 5), (3, 400), (1, 800), (20, 1600), (0, 2000)])
    @pytest.mark.parametrize("shard", [1, 2, 3])
    def test_crossing_scans_match_one_unsharded_index(self, shard, before,
                                                      count):
        bound = self.sharded[0].shard_map.bounds[shard]
        key = bound - 7 * before
        rows, _mns = self.scan(self.sharded, key, count)
        expected, _flat_mns = self.scan(self.flat, key, count)
        assert rows == expected
        assert rows == [(k, v) for k, v in self.PAIRS if k >= key][:count]

    @pytest.mark.parametrize("shard", [0, 1, 2, 3])
    def test_a_scan_inside_one_shard_reads_only_its_mn(self, shard):
        smap = self.sharded[0].shard_map
        key = smap.bounds[shard] + 70
        rows, mns = self.scan(self.sharded, key, 20)
        assert rows == [(k, v) for k, v in self.PAIRS if k >= key][:20]
        assert rows[-1][0] < smap.bounds[shard + 1]
        assert mns == {smap.mn_of(shard)}


class TestBulkLoad:
    def test_more_shards_than_keys_is_a_config_error(self):
        # Every shard needs a key; the error names the knob to change.
        with pytest.raises(ConfigError, match=r"ClusterConfig\.num_shards=8 "
                                              r"exceeds the 5 bulk-loaded"):
            make_sharded(num_keys=5, num_shards=8)
        _cluster, index, pairs = make_sharded(num_keys=8, num_shards=8)
        assert index.collect_items() == pairs


class TestRegistryGuard:
    def test_model_routed_family_rejected_when_sharded(self):
        cluster = Cluster(sharded_config(num_shards=2, num_mns=2))
        with pytest.raises(WorkloadError, match="cannot be key-range"):
            build_index("rolex", cluster)

    def test_model_routed_family_allowed_at_one_shard(self):
        cluster = Cluster(sharded_config(num_shards=1, num_mns=1))
        index = build_index("rolex", cluster)
        assert index.registry_family.family == "rolex"

    def test_shardable_family_builds_sharded(self):
        cluster = Cluster(sharded_config(num_shards=4, num_mns=2))
        index = build_index("chime", cluster)
        assert index.num_shards == 4
        assert len(index.shards()) == 4


class TestShardChaos:
    def test_one_shard_mn_outage_survivors_pass(self):
        result = run_chaos(CHAOS_CLUSTER.scaled(num_mns=4, num_shards=4),
                           FaultPlan(seed=7).outage(2, 30e-6, 120e-6))
        assert result.ok, result.invariants.violations
        assert result.fault_counters.get("fault.outage", 0) > 0
        # No client lost ops: the outage parked lanes, not killed them.
        assert all(count == result.config["ops_per_client"]
                   for count in result.completed.values())

    def test_sharded_chaos_is_deterministic(self):
        config = CHAOS_CLUSTER.scaled(num_mns=2, num_shards=2)
        first, second = (
            json.dumps(run_chaos(config, FaultPlan(seed=7).outage(
                1, 30e-6, 90e-6)).to_dict(), sort_keys=True)
            for _ in range(2))
        assert first == second


class TestSpecHashStability:
    @staticmethod
    def digest(**knobs):
        from repro.xpmt.spec import spec_hash, spec_payload
        return spec_hash(spec_payload(TINY.point(
            "chime", "C", TINY.cluster_config(clients=4, **knobs))))

    def test_default_sharding_fields_do_not_rekey(self):
        # The hash covers the point's ClusterConfig, so spelling out the
        # sharding defaults builds the same point.
        assert self.digest() == self.digest(num_mns=1, num_shards=0)

    def test_non_default_sharding_rekeys(self):
        assert self.digest() != self.digest(num_mns=4, num_shards=4)
        assert self.digest(num_mns=4) != self.digest(num_mns=4, num_shards=4)


#: What static shards deleted: the hot-shard rebalancer, online shard
#: migration, DEX-style cache ownership and their knobs.
DELETED = {
    "ShardHeatTracker", "ShardCacheView", "CACHE_PARTITIONED",
    "_ShardClientContext", "migrate_shard", "rebalancer", "rebalance",
    "rebalance_shards", "handoff_owner", "reassign", "reassign_owner",
    "owner_cn", "shards_on", "shards_owned_by", "migrating",
    "migration_done", "migrations", "_scheduled_migration", "_leaf_chain",
    "_context_for_migration", "drain_timeout", "shard_gauges", "cn_lines",
    "_invalidate_cn_lines", "_invalidate_mn_lines", "_scan_shard",
    "RESOLVED_ENV", "REPRO_CACHE_MODE", "REPRO_REBALANCE",
}


def test_no_module_reaches_for_the_deleted_shard_names():
    """No ``src/repro`` module defines, imports or touches a name of
    the deleted rebalancer, migration or cache-ownership paths."""
    used = []
    package = pathlib.Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant):
                names = [node.value]
            else:
                continue
            used.extend((path.name, node.lineno, name) for name in names
                        if isinstance(name, str) and name in DELETED)
    assert not used
