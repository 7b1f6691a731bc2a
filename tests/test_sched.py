"""Tests for the pipelined op scheduler (:mod:`repro.sched`).

The load-bearing guarantee: ``depth=1`` is event-sequence identical to
the historical strictly serial client loop.  The legacy loop is
reimplemented verbatim here and raced against :func:`launch_clients` on
two identically seeded clusters for every index family; engine event
counts, final simulated time, latency lists, and op counts must all
match exactly.  ``depth>1`` must stay deterministic and actually hide
latency (higher simulated throughput), and a CN crash at depth 4 must
park every lane of the dead CN while the tree stays consistent.
"""

import json

import pytest

from repro.bench.runner import build_index, load_index, run_workload
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.registry import family_names
from repro.sched import LaneContext, launch_clients
from repro.workloads.ycsb import (
    INSERT,
    READ_MODIFY_WRITE,
    SCAN,
    SEARCH,
    UPDATE,
    WORKLOADS,
    WorkloadContext,
    dataset,
)

NUM_KEYS = 300
OPS = 30
SEED = 11


def _make(index_name: str, workload: str):
    """One freshly seeded cluster + index + context, deterministic."""
    config = ClusterConfig(num_cns=2, clients_per_cn=2, seed=SEED)
    cluster = Cluster(config)
    index = build_index(index_name, cluster)
    pairs = dataset(NUM_KEYS, key_space=0, seed=SEED)
    spec = WORKLOADS[workload]
    context = WorkloadContext(spec, [k for k, _ in pairs], seed=SEED,
                              theta=0.99)
    context.expected_insert_budget = 64
    load_index(index, pairs, workload, context)
    return cluster, index, context


def _legacy_run(cluster, index, context, ops_per_client: int, warmup: int):
    """The pre-scheduler serial client loop, verbatim."""
    clients = list(cluster.clients())
    index_clients = [index.client(ctx) for ctx in clients]
    latencies: list = []
    completed = [0]

    def client_loop(client, stream):
        engine = cluster.engine
        for op_index, op in enumerate(stream):
            begin = engine.now
            if op.kind == SEARCH:
                yield from client.search(op.key)
            elif op.kind == UPDATE:
                yield from client.update(op.key, op.value)
            elif op.kind == INSERT:
                yield from client.insert(op.key, op.value)
                context.commit_insert(op.key)
            elif op.kind == SCAN:
                yield from client.scan(op.key, op.scan_count)
            elif op.kind == READ_MODIFY_WRITE:
                current = yield from client.search(op.key)
                if current is not None:
                    yield from client.update(op.key, op.value)
            completed[0] += 1
            if op_index >= warmup:
                latencies.append((engine.now - begin) * 1e6)

    for client_index, client in enumerate(index_clients):
        stream = context.stream(client_index, ops_per_client)
        cluster.engine.process(client_loop(client, iter(stream)))
    cluster.run()
    return completed[0], latencies


def _sched_run(cluster, index, context, ops_per_client: int, warmup: int,
               depth: int):
    run = launch_clients(cluster, index, context, ops_per_client, warmup,
                         depth=depth)
    cluster.run()
    return run


# Every family under the paper's mixed workload, plus insert- and
# scan-heavy mixes on representatives with distinctive write paths.
EQUALITY_POINTS = [(name, "A") for name in family_names()]
EQUALITY_POINTS += [("chime", "D"), ("chime", "E"), ("rolex", "D"),
                    ("smart", "F")]


class TestDepth1Equality:
    @pytest.mark.parametrize("index_name,workload", EQUALITY_POINTS)
    def test_scheduler_matches_legacy_loop(self, index_name, workload):
        warmup = OPS // 10
        cluster_a, index_a, context_a = _make(index_name, workload)
        ops_a, lat_a = _legacy_run(cluster_a, index_a, context_a, OPS,
                                   warmup)
        cluster_b, index_b, context_b = _make(index_name, workload)
        run_b = _sched_run(cluster_b, index_b, context_b, OPS, warmup,
                           depth=1)
        assert cluster_b.engine.events_processed == \
            cluster_a.engine.events_processed
        assert cluster_b.engine.now == cluster_a.engine.now
        assert run_b.ops_completed == ops_a
        assert run_b.latencies == lat_a
        assert cluster_b.traffic_totals() == cluster_a.traffic_totals()

    def test_run_workload_depth1_matches_legacy(self):
        warmup = OPS // 10
        cluster_a, index_a, context_a = _make("chime", "A")
        ops_a, lat_a = _legacy_run(cluster_a, index_a, context_a, OPS,
                                   warmup)
        cluster_b, index_b, context_b = _make("chime", "A")
        result = run_workload(cluster_b, index_b, "A", OPS, context_b)
        assert result.ops_completed == ops_a
        assert result.latencies_us == lat_a
        assert "sched.depth" not in result.notes  # depth=1 stays silent


class TestDeeperDepths:
    def test_depth_gt1_is_deterministic(self):
        rows = []
        for _ in range(2):
            cluster, index, context = _make("chime", "A")
            result = run_workload(cluster, index, "A", OPS, context,
                                  depth=3)
            rows.append(json.dumps(
                {"summary": result.summary(),
                 "latencies": result.latencies_us},
                sort_keys=True))
        assert rows[0] == rows[1]

    def test_depth4_raises_simulated_throughput_on_ycsb_c(self):
        results = {}
        for depth in (1, 4):
            cluster, index, context = _make("chime", "C")
            results[depth] = run_workload(cluster, index, "C", OPS,
                                          context, depth=depth)
        assert results[1].ops_completed == results[4].ops_completed
        assert results[4].throughput_mops > results[1].throughput_mops
        assert results[4].notes["sched.depth"] == 4.0

    def test_all_ops_run_exactly_once_at_any_depth(self):
        for depth in (1, 2, 5):
            cluster, index, context = _make("chime", "A")
            result = run_workload(cluster, index, "A", OPS, context,
                                  depth=depth)
            assert result.ops_completed == OPS * cluster.total_clients

    def test_lanes_get_per_coroutine_span_ids(self):
        from repro import obs
        cluster, index, context = _make("chime", "C")
        with obs.recording() as recorder:
            run_workload(cluster, index, "C", OPS, context, depth=2)
        lanes = {span.client for span in recorder.spans}
        assert any(name.endswith("~1") for name in lanes)
        assert any("~" not in name for name in lanes)  # lane 0 is raw


class TestLaneContext:
    def test_name_is_lane_tagged_and_rest_delegates(self):
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1,
                                        seed=SEED))
        ctx = next(iter(cluster.clients()))
        lane = LaneContext(ctx, 2)
        assert lane.name == f"{ctx.name}~2"
        assert lane.qp is ctx.qp
        assert lane.rng is ctx.rng
        assert lane.cn is ctx.cn
        assert lane.client_id == ctx.client_id


class TestChaosAtDepth:
    def test_cn_crash_at_depth4_parks_all_lanes_and_tree_survives(self):
        from repro.faults import ChaosConfig, run_chaos
        result = run_chaos(ChaosConfig(pipeline_depth=4))
        assert result.invariants.ok
        assert not result.errors
        assert result.dead_cns == [0]
        # Survivors on the live CN finish their full op streams.
        for name, count in result.completed.items():
            if name.startswith("cn1/"):
                assert count == result.config["ops_per_client"]
        # Every parked coroutine belongs to the crashed CN, and more
        # than one lane of the victim client was caught in flight.
        assert result.parked
        assert all(owner.startswith("cn0/") for owner in result.parked)
        assert sum(result.parked.values()) > 1

    def test_chaos_depth_is_config_determined_not_env(self, monkeypatch):
        from repro.faults import ChaosConfig, run_chaos
        monkeypatch.setenv("REPRO_DEPTH", "4")
        blob_env = json.dumps(
            run_chaos(ChaosConfig(ops_per_client=10)).to_dict(),
            sort_keys=True)
        monkeypatch.delenv("REPRO_DEPTH")
        blob_plain = json.dumps(
            run_chaos(ChaosConfig(ops_per_client=10)).to_dict(),
            sort_keys=True)
        assert blob_env == blob_plain


class TestHitRatioAccounting:
    def test_hit_ratio_ignores_pre_run_cache_counters(self):
        baseline = None
        for pollute in (False, True):
            cluster, index, context = _make("chime", "C")
            if pollute:
                for cn in cluster.cns:
                    cn.cache.hits += 1_000_000
            result = run_workload(cluster, index, "C", OPS, context)
            if baseline is None:
                baseline = result.cache_hit_ratio
            else:
                assert result.cache_hit_ratio == baseline
        assert 0.0 < baseline <= 1.0
