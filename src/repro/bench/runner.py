"""The workload runner: closed-loop clients driving an index on a cluster.

One call to :func:`run_workload` corresponds to one data point of a paper
figure: it launches up to ``depth`` op coroutines ("lanes") per
:class:`ClientContext` via :mod:`repro.sched`, drains one deterministic
:class:`~repro.workloads.ycsb.OpStream` per client, and collects
throughput / latency / traffic into a
:class:`~repro.bench.metrics.RunResult`.  ``depth=1`` (the default) is
event-sequence identical to the historical strictly serial client loop.

A measurement point's fields are declared once, on :class:`PointSpec`;
:func:`prepare_point` and :func:`run_point` are its positional
spellings.  Index construction goes through :mod:`repro.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.bench.metrics import RunResult
from repro.cluster.cluster import Cluster
from repro.config import KNOBS, ClusterConfig
from repro.obs import active_recording
from repro.registry import build_index, get_family
from repro.sched import launch_clients
from repro.workloads.ycsb import WORKLOADS, WorkloadContext, dataset

__all__ = ["PointSpec", "build_index", "load_index", "prepare_point",
           "run_point", "run_workload"]


def load_index(index, pairs, workload_name: str,
               context: WorkloadContext) -> None:
    """Bulk load, pre-training model-routed indexes (ROLEX and
    CHIME-Learned) on future insert keys (§5.1 fn. 3)."""
    if index.registry_family.model_routed:
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
                 depth: Optional[int] = None) -> RunResult:
    """Drive every cluster client through its op stream; returns metrics.

    *depth* overrides the pipeline depth for this run; None means
    the cluster's :attr:`~repro.config.ClusterConfig.pipeline_depth`.
    An op's :class:`~repro.errors.ReproError` stops its client; the
    first one is raised once every other client has finished.
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

    streams = [context.stream(client_index, ops_per_client)
               for client_index in range(cluster.total_clients)]
    run = launch_clients(cluster, index, streams, warmup, depth=depth,
                         commit=context.commit_insert)
    cluster.run()
    if run.errors:
        raise run.errors[0][1]
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


@dataclass(frozen=True)
class PointSpec:
    """One picklable measurement point: everything that decides its
    result, plus ``extra`` row fields a sweep merges into its summary row.

    Every run-level knob (depth, sync mode, sharding) is a
    field of ``cluster_config``, so a point never depends on the
    environment of the process that runs it.
    :meth:`repro.bench.scale.Scale.point` fills the size fields, the
    CHIME overrides and the config from a scale.
    """

    index_name: str
    workload_name: str
    num_keys: int
    ops_per_client: int
    cluster_config: ClusterConfig
    value_size: int = 8
    span: Optional[int] = None
    neighborhood: Optional[int] = None
    theta: float = 0.99
    chime_overrides: Optional[dict] = None
    key_space: int = 0
    #: Index names that run with an uncapped CN cache; None means the
    #: registry's ``unlimited_cache`` capability (``smart-opt``).
    unlimited_cache_for: Optional[Sequence[str]] = None
    extra: Tuple[Tuple[str, Any], ...] = ()

    def prepare(self):
        """Build cluster + index + loaded workload.

        Returns ``(cluster, index, context)`` ready for
        :func:`run_workload`.
        """
        config = self.cluster_config
        if self.unlimited_cache_for is None:
            uncapped = get_family(self.index_name).unlimited_cache
        else:
            uncapped = self.index_name in self.unlimited_cache_for
        if uncapped:
            config = config.scaled(cache_bytes=None)
        cluster = Cluster(config)
        index = build_index(self.index_name, cluster,
                            value_size=self.value_size, span=self.span,
                            neighborhood=self.neighborhood,
                            chime_overrides=self.chime_overrides)
        pairs = dataset(self.num_keys, key_space=self.key_space,
                        seed=config.seed)
        spec = WORKLOADS[self.workload_name]
        context = WorkloadContext(spec, pairs.key_column,
                                  seed=config.seed, theta=self.theta)
        context.expected_insert_budget = (
            int(spec.insert_fraction * self.ops_per_client
                * config.total_clients) + 64)
        load_index(index, pairs, self.workload_name, context)
        return cluster, index, context

    def run(self) -> RunResult:
        """Prepare and run the point (also the sweep worker entry)."""
        cluster, index, context = self.prepare()
        result = run_workload(cluster, index, self.workload_name,
                              self.ops_per_client, context)
        result.index_name = self.index_name
        return result


def prepare_point(*fields, **named):
    """``PointSpec(...).prepare()`` under its historical name."""
    return PointSpec(*fields, **named).prepare()


def run_point(*fields, **named) -> RunResult:
    """``PointSpec(...).run()`` under its historical name."""
    return PointSpec(*fields, **named).run()
