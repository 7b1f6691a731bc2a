"""Tests for multi-MN key-space sharding.

Covers the shard map and cache-ownership layer
(:mod:`repro.cluster.shards`), the per-shard allocator
(:class:`repro.memory.PartitionedAllocator`), the sharded index facade
(:mod:`repro.core.sharded`), the registry guard for model-routed
families, shard-aware chaos, and the xpmt spec-hash stability rules.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import Scale, run_point
from repro.cluster import Cluster
from repro.cluster.shards import (
    ShardHeatTracker,
    ShardMap,
    partition_pairs,
)
from repro.config import KNOBS, ClusterConfig
from repro.errors import ConfigError, WorkloadError
from repro.faults import ChaosConfig, run_chaos
from repro.layout import MAX_KEY
from repro.memory import PartitionedAllocator, make_addr
from repro.registry import build_index, get_family

TINY = Scale(name="tiny", num_keys=900, ops_per_client=30,
             client_sweep=[4], clients=4, nic_scale=8.0, seed=11)

#: One index per family (as the pinned YCSB-C points of
#: ``tests/test_golden_families.py``), golden-tested below.
GOLDEN_FAMILIES = ("chime", "sherman", "rolex", "smart")


def sharded_config(num_shards=4, num_mns=2, num_cns=2, clients_per_cn=2,
                   cache_mode="shared"):
    return ClusterConfig(num_cns=num_cns, num_mns=num_mns,
                         clients_per_cn=clients_per_cn,
                         cache_bytes=1 << 22, region_bytes=1 << 25,
                         num_shards=num_shards, cache_mode=cache_mode)


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
        smap = ShardMap(4, 2, num_cns=2)
        assert smap.home == [0, 1, 0, 1]
        assert smap.owner == [0, 1, 0, 1]
        assert smap.shards_on(1) == [1, 3]
        assert smap.shards_owned_by(0) == [0, 2]

    def test_rebuild_bounds_balances_items(self):
        smap = ShardMap(4, 2)
        # A key distribution crammed into a tiny prefix of the domain:
        # the even carve would put everything in shard 0.
        keys = list(range(1, 1001))
        smap.rebuild_bounds(keys)
        assert smap.epoch == 1
        buckets = partition_pairs([(k, 0) for k in keys], smap)
        sizes = [len(b) for b in buckets]
        assert min(sizes) >= max(sizes) - 1

    def test_rebuild_is_idempotent_on_epoch(self):
        smap = ShardMap(4, 2)
        keys = list(range(1, 101))
        smap.rebuild_bounds(keys)
        epoch = smap.epoch
        smap.rebuild_bounds(keys)
        assert smap.epoch == epoch

    def test_reassign_bumps_epoch_once(self):
        smap = ShardMap(4, 2)
        smap.reassign(0, 1)
        assert smap.home[0] == 1 and smap.epoch == 1
        smap.reassign(0, 1)
        assert smap.epoch == 1
        smap.reassign_owner(2, 1)
        assert smap.owner[2] == 1 and smap.epoch == 2

    def test_single_shard_never_rebuilds(self):
        smap = ShardMap(1, 1)
        smap.rebuild_bounds(list(range(1, 50)))
        assert smap.epoch == 0
        assert smap.shard_of(12345) == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardMap(0, 1)

    def test_cache_mode_validation(self):
        knob = KNOBS["cache_mode"]
        assert knob.parse("Shared ", "--cache-mode") == "shared"
        assert ClusterConfig(cache_mode="partitioned").cache_mode == \
            "partitioned"
        with pytest.raises(ConfigError, match="ClusterConfig.cache_mode"):
            ClusterConfig(cache_mode="exclusive", num_shards=2)


class TestHeatTracker:
    def test_hot_shard_detection_with_dwell(self):
        heat = ShardHeatTracker(4, min_dwell=100e-6)
        for _ in range(40):
            heat.record(2)
        heat.record(0)
        heat.decay()
        assert heat.hot_shard(now=1e-3) == 2
        # Rate-limited: a second probe inside the dwell stays quiet.
        assert heat.hot_shard(now=1e-3 + 50e-6) is None
        assert heat.hot_shard(now=1e-3 + 200e-6) == 2

    def test_uniform_traffic_is_not_hot(self):
        heat = ShardHeatTracker(4)
        for shard in range(4):
            for _ in range(10):
                heat.record(shard)
        heat.decay()
        assert heat.hot_shard(now=1.0) is None

    def test_gauges_roll_up_per_mn(self):
        heat = ShardHeatTracker(4)
        smap = ShardMap(4, 2)
        for shard, count in enumerate((5, 3, 2, 1)):
            for _ in range(count):
                heat.record(shard)
        gauges = heat.gauges(smap)
        assert gauges["shard.ops.s0"] == 5.0
        assert gauges["shard.ops.mn0"] == 7.0  # shards 0 + 2
        assert gauges["shard.ops.mn1"] == 4.0  # shards 1 + 3


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

    def test_alloc_routes_to_home_mn(self):
        cluster = Cluster(sharded_config(num_shards=4, num_mns=2))
        alloc = cluster.partitioned_allocator
        smap = cluster.shard_map
        for shard in range(4):
            addr = alloc.alloc(shard, 64)
            assert addr >> 48 == smap.home[shard]


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


class TestPartitionedCache:
    def test_non_owned_shards_are_never_admitted(self):
        cluster, index, pairs = make_sharded(cache_mode="partitioned")
        smap = cluster.shard_map
        cn0 = cluster.cns[0]
        client = index.client(cn0.clients[0])
        owned = smap.shards_owned_by(0)[0]
        foreign = smap.shards_owned_by(1)[0]

        def probe(shard):
            key = smap.bounds[shard] + 5
            def op():
                yield from client.search(key)
            drive(cluster, op())

        probe(owned)
        probe(foreign)
        assert index.cn_lines(cn0, owned)
        assert not index.cn_lines(cn0, foreign)

    def test_handoff_invalidates_previous_owner(self):
        cluster, index, _ = make_sharded(cache_mode="partitioned")
        smap = cluster.shard_map
        cn0 = cluster.cns[0]
        client = index.client(cn0.clients[0])
        shard = smap.shards_owned_by(0)[0]
        key = smap.bounds[shard] + 5

        def op():
            yield from client.search(key)
        drive(cluster, op())
        assert index.cn_lines(cn0, shard)
        epoch = smap.epoch
        index.handoff_owner(shard, 1)
        assert smap.owner_cn(shard) == 1
        assert smap.epoch == epoch + 1
        assert not index.cn_lines(cn0, shard)


class TestOnlineMigration:
    def test_migration_preserves_keys_and_flips_home(self):
        cluster, index, pairs = make_sharded(num_keys=1500)
        smap = cluster.shard_map
        source = smap.home[0]
        target = 1 - source
        epoch = smap.epoch
        drive(cluster, index.migrate_shard(0, target))
        assert smap.home[0] == target
        assert smap.epoch > epoch
        assert smap.migrating is None
        assert index.collect_items() == pairs
        assert index.shard_gauges()["shard.migrations"] == 1.0

    def test_migrated_shard_still_serves_ops(self):
        cluster, index, pairs = make_sharded(num_keys=1500)
        smap = cluster.shard_map
        target = 1 - smap.home[0]
        drive(cluster, index.migrate_shard(0, target))
        client = index.client(cluster.cns[0].clients[0])
        probe_key = smap.bounds[0] + 1
        expected = dict(pairs).get(probe_key)

        def op():
            found = yield from client.search(probe_key)
            yield from client.insert(probe_key + 1, 999)
            return found
        found = drive(cluster, op())[0]
        assert found == expected
        assert (probe_key + 1, 999) in index.collect_items()


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
        cfg = dataclasses.replace(
            ChaosConfig(), num_mns=4, num_shards=4, crash_owner="",
            mn_outages=((2, 30e-6, 120e-6),))
        result = run_chaos(cfg)
        assert result.ok, result.invariants.violations
        assert result.fault_counters.get("fault.outage", 0) > 0
        # No client lost ops: the outage parked lanes, not killed them.
        assert all(count == cfg.ops_per_client
                   for count in result.completed.values())

    def test_partitioned_cache_with_migration_under_outage(self):
        cfg = dataclasses.replace(
            ChaosConfig(), num_mns=4, num_shards=4, crash_owner="",
            cache_mode="partitioned", migrations=((1, 0, 60e-6),),
            mn_outages=((3, 30e-6, 120e-6),))
        result = run_chaos(cfg)
        assert result.ok, result.invariants.violations

    def test_sharded_chaos_is_deterministic(self):
        cfg = dataclasses.replace(
            ChaosConfig(), num_mns=2, num_shards=2, crash_owner="",
            migrations=((0, 1, 50e-6),))
        first = json.dumps(run_chaos(cfg).to_dict(), sort_keys=True)
        second = json.dumps(run_chaos(cfg).to_dict(), sort_keys=True)
        assert first == second


class TestSpecHashStability:
    def test_default_sharding_fields_do_not_rekey(self):
        from repro.xpmt.spec import CellSpec, spec_hash, spec_payload
        pre = spec_payload(
            CellSpec(index="chime", workload="C", clients=4), TINY)
        assert "num_mns" not in pre["cell"]
        assert "cache_mode" not in pre["cell"]
        post = spec_payload(
            CellSpec(index="chime", workload="C", clients=4,
                     num_mns=1, cache_mode="shared"), TINY)
        assert spec_hash(pre) == spec_hash(post)

    def test_non_default_sharding_rekeys(self):
        from repro.xpmt.spec import CellSpec, spec_hash, spec_payload
        base = spec_payload(
            CellSpec(index="chime", workload="C", clients=4), TINY)
        sharded = spec_payload(
            CellSpec(index="chime", workload="C", clients=4,
                     num_mns=4), TINY)
        assert spec_hash(base) != spec_hash(sharded)
