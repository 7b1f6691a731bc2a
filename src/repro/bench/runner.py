"""The workload runner: closed-loop clients driving an index on a cluster.

One call to :func:`run_workload` corresponds to one data point of a paper
figure: it launches up to ``depth`` op coroutines ("lanes") per
:class:`ClientContext` via :mod:`repro.sched`, drains one deterministic
:class:`~repro.workloads.ycsb.OpStream` per client, and collects
throughput / latency / traffic into a
:class:`~repro.bench.metrics.RunResult`.  ``depth=1`` (the default) is
event-sequence identical to the historical strictly serial client loop.

Index construction goes through :mod:`repro.registry`;
:func:`build_index` and :data:`KV_DISCRETE` are re-exported here for
backwards compatibility with existing callers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.metrics import RunResult
from repro.cluster.cluster import Cluster
from repro.config import KNOBS, ClusterConfig
from repro.obs import active_recording
from repro.registry import build_index, get_family
from repro.sched import launch_clients
from repro.workloads.ycsb import WORKLOADS, WorkloadContext, dataset

__all__ = ["KV_DISCRETE", "build_index", "load_index", "prepare_point",
           "run_point", "run_workload"]

#: Index names that store leaf items discretely (no bulk-ordered leaves).
#: Derived from the registry's ``kv_discrete`` capability flag; kept as a
#: module attribute for backwards compatibility.
from repro.registry import kv_discrete_names as _kv_discrete_names

KV_DISCRETE = set(_kv_discrete_names())


def load_index(index, pairs, workload_name: str,
               context: WorkloadContext) -> None:
    """Bulk load, pre-training model-routed indexes (ROLEX and
    CHIME-Learned) on future insert keys (§5.1 fn. 3).

    Model-routedness comes from the registry when the index was built
    through it; indexes constructed directly fall back to an
    isinstance check.
    """
    family = getattr(index, "registry_family", None)
    if family is not None:
        model_routed = family.model_routed
    else:
        from repro.baselines import RolexIndex
        from repro.core.learned import LearnedChimeIndex
        model_routed = isinstance(index, (RolexIndex, LearnedChimeIndex))
    if model_routed:
        spec = WORKLOADS[workload_name]
        expected_inserts = 0
        if spec.insert_fraction:
            expected_inserts = context.expected_insert_budget
        index.bulk_load(pairs,
                        future_keys=context.insert_keys_upto(expected_inserts))
    else:
        index.bulk_load(pairs)


def run_workload(cluster: Cluster, index, workload_name: str,
                 ops_per_client: int, context: WorkloadContext,
                 warmup_fraction: float = 0.1,
                 max_sim_seconds: Optional[float] = None,
                 depth: Optional[int] = None) -> RunResult:
    """Drive every cluster client through its op stream; returns metrics.

    *depth* overrides the pipeline depth for this run; None means
    the cluster's :attr:`~repro.config.ClusterConfig.pipeline_depth`.
    """
    if depth is None:
        depth = cluster.config.pipeline_depth
    KNOBS["depth"].check(depth, "run_workload(depth=)")
    warmup = int(ops_per_client * warmup_fraction)
    traffic_before = cluster.traffic_totals()
    # Snapshot cumulative cache counters so the reported hit ratio only
    # reflects this run — bulk load, warm-up traffic, or a previous run
    # on the same cluster must not pollute it.
    cache_before = [(cn.cache.hits, cn.cache.misses) for cn in cluster.cns]
    switches_before = getattr(index, "placement_switches", None)
    start_time = cluster.engine.now

    run = launch_clients(cluster, index, context, ops_per_client, warmup,
                         depth=depth)
    cluster.run(until=None if max_sim_seconds is None
                else start_time + max_sim_seconds)
    elapsed = cluster.engine.now - start_time
    traffic = cluster.traffic_totals().delta(traffic_before)
    hits = sum(cn.cache.hits - before[0]
               for cn, before in zip(cluster.cns, cache_before))
    misses = sum(cn.cache.misses - before[1]
                 for cn, before in zip(cluster.cns, cache_before))
    hit_ratio = hits / max(1, hits + misses)
    result = RunResult(
        index_name=getattr(index, "name", type(index).__name__),
        workload=workload_name,
        num_clients=cluster.total_clients,
        ops_completed=run.ops_completed,
        elapsed_seconds=elapsed,
        latencies_us=run.latencies,
        traffic=traffic,
        cache_bytes_used=cluster.cache_bytes_used(),
        cache_hit_ratio=hit_ratio,
    )
    if depth > 1:
        result.notes["sched.depth"] = float(depth)
        parked = run.lanes_parked
        if parked:
            result.notes["sched.lanes_parked"] = float(parked)
    if switches_before is not None:
        # Dynamic-placement families report how many partitions the
        # policy moved during this run and where they ended up.
        result.notes["placement.switches"] = float(
            index.placement_switches - switches_before)
        table = index.placement.table()
        result.notes["placement.mn_partitions"] = float(
            sum(1 for target in table.values() if target == "mn"))
    recording = active_recording()
    if recording is not None:
        result.notes.update(recording.notes())
    return result


def prepare_point(index_name: str, workload_name: str, num_keys: int,
                  ops_per_client: int, cluster_config: ClusterConfig,
                  value_size: int = 8, span: Optional[int] = None,
                  neighborhood: Optional[int] = None,
                  theta: float = 0.99,
                  chime_overrides: Optional[dict] = None,
                  key_space: int = 0,
                  unlimited_cache_for: Optional[Sequence[str]] = None,
                  ):
    """Build cluster + index + loaded workload for one measurement point.

    Returns ``(cluster, index, context)`` ready for :func:`run_workload`.

    ``unlimited_cache_for`` defaults to the registry's
    ``unlimited_cache`` capability (historically the hardcoded
    ``("smart-opt",)`` set); pass an explicit sequence to override.
    """
    family = get_family(index_name)
    if unlimited_cache_for is None:
        uncapped = family.unlimited_cache
    else:
        uncapped = index_name in unlimited_cache_for
    if uncapped:
        cluster_config = cluster_config.scaled(cache_bytes=None)
    cluster = Cluster(cluster_config)
    index = build_index(index_name, cluster, value_size=value_size,
                        span=span, neighborhood=neighborhood,
                        chime_overrides=chime_overrides)
    pairs = dataset(num_keys, key_space=key_space,
                    seed=cluster_config.seed)
    spec = WORKLOADS[workload_name]
    context = WorkloadContext(spec, [k for k, _ in pairs],
                              seed=cluster_config.seed, theta=theta)
    total_inserts = (int(spec.insert_fraction * ops_per_client
                         * cluster_config.total_clients) + 64)
    context.expected_insert_budget = total_inserts
    load_index(index, pairs, workload_name, context)
    return cluster, index, context


def run_point(index_name: str, workload_name: str, num_keys: int,
              ops_per_client: int, cluster_config: ClusterConfig,
              value_size: int = 8, span: Optional[int] = None,
              neighborhood: Optional[int] = None,
              theta: float = 0.99,
              chime_overrides: Optional[dict] = None,
              key_space: int = 0,
              unlimited_cache_for: Optional[Sequence[str]] = None,
              ) -> RunResult:
    """Build cluster + index + workload and run one measurement point."""
    cluster, index, context = prepare_point(
        index_name, workload_name, num_keys, ops_per_client,
        cluster_config, value_size=value_size, span=span,
        neighborhood=neighborhood, theta=theta,
        chime_overrides=chime_overrides, key_space=key_space,
        unlimited_cache_for=unlimited_cache_for)
    result = run_workload(cluster, index, workload_name, ops_per_client,
                          context)
    result.index_name = index_name
    return result
