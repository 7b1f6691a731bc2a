"""Cluster assembly: wire memory nodes, compute nodes, and the engine."""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.cluster.compute import ClientContext, ComputeNode
from repro.cluster.shards import ShardMap
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.memory.allocator import PartitionedAllocator
from repro.memory.node import MemoryNode
from repro.obs.bus import BUS
from repro.rdma.ops import TrafficStats
from repro.sim.engine import Engine


class Cluster:
    """A simulated disaggregated-memory cluster.

    Construction is cheap; all cost is simulated.  One cluster hosts one
    experiment: indexes bulk-load into its memory pool and clients run on
    its compute pool.
    """

    def __init__(self, config: ClusterConfig) -> None:
        # Imported here: repro.core imports this module.
        from repro.core.adaptive import SyncState

        self.config = config
        self.engine = Engine()
        self.mns: Dict[int, MemoryNode] = {
            mn_id: MemoryNode(self.engine, mn_id, config.region_bytes,
                              nic_spec=config.mn_nic)
            for mn_id in range(config.num_mns)
        }
        self.cns: List[ComputeNode] = [
            ComputeNode(self.engine, cn_id, config, self.mns)
            for cn_id in range(config.num_cns)
        ]
        # Key-space sharding (ISSUE 9): num_shards == 0 keeps the
        # historical single-pool behavior; >= 1 builds the shard map and
        # the per-shard root slots the ShardedIndex uses.
        if config.num_shards:
            self.shard_map = ShardMap(config.num_shards, config.num_mns)
            self.partitioned_allocator = PartitionedAllocator(
                self.mns, self.shard_map)
        else:
            self.shard_map = None
            self.partitioned_allocator = None
        #: The lock line's synchronization state — sync mode, per-leaf
        #: switch, queue-ticket registry — shared by every index client.
        self.sync_state = SyncState(config.sync_mode)
        # Timestamp source for bus emitters without an engine reference
        # (cache, sync checks).  Last constructed cluster wins, which is
        # right for the one-cluster-at-a-time experiment flow.
        BUS.set_clock(lambda: self.engine.now)

    def install_faults(self, plan) -> "object":
        """Attach a :class:`repro.faults.FaultInjector` for *plan*.

        Every client queue pair in the cluster starts consulting the
        injector before and after each verb.  Returns the injector so
        the caller can read its counters / dead-CN set afterwards.  A
        spec naming a client or an MN this cluster lacks could never
        fire: it raises :class:`~repro.errors.ConfigError`.
        """
        from repro.faults.injector import FaultInjector

        owners = {ctx.qp.owner for ctx in self.clients()}
        named = [crash.owner for crash in plan.crashes] + [
            fault.owner for fault in (*plan.losses, *plan.delays)
            if fault.owner]  # an empty owner matches every client
        for owner in named:
            if owner not in owners:
                raise ConfigError(f"fault owner {owner!r} names no client "
                                  f"(cn0/c0 .. cn{len(self.cns) - 1}"
                                  f"/c{self.config.clients_per_cn - 1})")
        for outage in plan.outages:
            if outage.mn_id not in self.mns:
                raise ConfigError(f"outage MN {outage.mn_id} is not one of "
                                  f"the cluster's {len(self.mns)} MN(s)")
        injector = FaultInjector(self.engine, plan)
        for ctx in self.clients():
            ctx.qp.injector = injector
        return injector

    def clients(self) -> Iterator[ClientContext]:
        """All client contexts, grouped by CN."""
        for cn in self.cns:
            yield from cn.clients

    @property
    def total_clients(self) -> int:
        return sum(len(cn.clients) for cn in self.cns)

    def traffic_totals(self) -> TrafficStats:
        """Aggregate verb counters across every client."""
        total = TrafficStats()
        for client in self.clients():
            total.merge(client.qp.stats)
        return total

    def cache_bytes_used(self) -> int:
        """Bytes of index cache in use across all CNs."""
        return sum(cn.cache.bytes_used for cn in self.cns)

    def run(self, until=None) -> float:
        """Drive the simulation (delegates to the engine).

        While the observability bus has subscribers, a sampling hook on
        the engine publishes scheduler progress (``sim.tick`` events).
        """
        if BUS.active and self.engine.trace_hook is None:
            self.engine.trace_hook = (
                lambda now, events, heap: BUS.emit(
                    "sim.tick", now, events=events, heap=heap))
        elif not BUS.active:
            self.engine.trace_hook = None
        return self.engine.run(until=until)
