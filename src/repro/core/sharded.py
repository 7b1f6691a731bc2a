"""The sharded index: per-shard sub-trees behind one client interface.

:class:`ShardedIndex` replaces the single-tree assumption with one
sub-index per contiguous key-range shard, each built by the family's
registry factory over a :class:`_ShardClusterView` whose ``mns`` dict
contains only the shard's home MN — so the existing round-robin
striping in every family's ``_host_alloc`` / client chunk allocator
collapses to the home MN with **zero** code changes inside the
families and zero event-sequence change.  Each B-link-tree sub-index
gets its own root-pointer slot from the cluster's
:class:`~repro.memory.PartitionedAllocator`.

With ``num_shards=1`` on one MN the view is the whole cluster, routing
is pure Python (no simulation yields), and the wrapped index is
event-sequence identical to the legacy path — golden-verified per
family by ``tests/test_shards.py``.

:class:`ShardedClient` routes every op by key before execution,
fans cross-shard range scans out as parallel engine processes merged
in key order, parks ops addressed to a shard mid-migration, and (in
``cache_mode="partitioned"``) binds each sub-client to a
:class:`~repro.cluster.shards.ShardCacheView` so the CN cache only
admits nodes of the shards the CN owns.

Online migration (:meth:`ShardedIndex.migrate_shard`) follows the
protocol in DESIGN.md §14: drain the shard's in-flight ops behind the
shard-map gate, copy each leaf out under its lease lock via RDMA
verbs (fault-injectable, retried), rebuild on the target MN and charge
the copy-in writes, flip the :class:`ShardMap` epoch, and invalidate
the admitted cache lines so CNs refresh on the epoch mismatch.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.cluster.shards import (
    CACHE_PARTITIONED,
    ShardCacheView,
    ShardHeatTracker,
    partition_pairs,
)
from repro.layout import StripedSpan
from repro.memory import NULL_ADDR, addr_mn
from repro.obs.bus import BUS

__all__ = ["ShardedClient", "ShardedIndex"]


class _ShardClusterView:
    """A cluster facade restricted to one shard's home MN.

    Everything passes through to the real cluster except ``mns``, which
    contains only the home memory node — family code that round-robins
    ``sorted(cluster.mns)`` therefore lands every allocation on the
    shard's home MN without knowing shards exist.
    """

    __slots__ = ("_cluster", "mns")

    def __init__(self, cluster, mn_id: int) -> None:
        self._cluster = cluster
        self.mns = {mn_id: cluster.mns[mn_id]}

    def __getattr__(self, attr):
        return getattr(self._cluster, attr)


class _ShardClientContext:
    """A per-shard view of one client context with its own cache facade."""

    __slots__ = ("_ctx", "cache")

    def __init__(self, ctx, cache) -> None:
        self._ctx = ctx
        self.cache = cache

    def __getattr__(self, attr):
        return getattr(self._ctx, attr)


class _MergedSyncState:
    """Stranded-ticket reporting across every sub-index (chaos)."""

    def __init__(self, states) -> None:
        self._states = states

    def stranded(self, dead_cns) -> List[Dict]:
        out: List[Dict] = []
        for state in self._states:
            out.extend(state.stranded(dead_cns))
        return out


class ShardedIndex:
    """One registry family instantiated as per-shard sub-trees."""

    def __init__(
        self,
        cluster,
        family,
        value_size: int = 8,
        span: Optional[int] = None,
        neighborhood: Optional[int] = None,
        chime_overrides: Optional[dict] = None,
    ) -> None:
        if cluster.shard_map is None:
            raise ValueError(
                "ShardedIndex needs a sharded cluster "
                "(ClusterConfig.num_shards >= 1)"
            )
        self.cluster = cluster
        self.family = family
        self.name = family.name
        self.shard_map = cluster.shard_map
        self.allocator = cluster.partitioned_allocator
        self.num_shards = self.shard_map.num_shards
        self.cache_mode = cluster.config.cache_mode
        self._build_kwargs = dict(
            value_size=value_size,
            span=span,
            neighborhood=neighborhood,
            overrides=chime_overrides,
        )
        self._subs: List[object] = [
            self._build_sub(shard) for shard in range(self.num_shards)
        ]
        #: Ops currently executing against each shard (migration drain).
        self.in_flight: List[int] = [0] * self.num_shards
        self.heat = ShardHeatTracker(self.num_shards)
        self.migrations = 0
        #: Simulated seconds the migration drain waits for in-flight ops
        #: before proceeding anyway (a crashed lane can never decrement
        #: its counter; the per-leaf lease locks cover that hazard).
        self.drain_timeout = 2e-3
        self._migration_ctx = None

    # -- construction --------------------------------------------------------

    def _build_sub(self, shard: int, mn_id: Optional[int] = None):
        """One sub-index over *shard*'s home-MN cluster view."""
        home = self.shard_map.mn_of(shard) if mn_id is None else mn_id
        view = _ShardClusterView(self.cluster, home)
        sub = self.family.factory(view, **self._build_kwargs)
        if hasattr(sub, "root_ptr_addr"):
            sub.root_ptr_addr = self.allocator.root_addr(shard, mn_id=mn_id)
        return sub

    def shards(self) -> List[Tuple[int, object]]:
        """(shard, sub-index) pairs, in key order."""
        return list(enumerate(self._subs))

    @property
    def sync_state(self):
        states = [
            s for s in (getattr(sub, "sync_state", None) for sub in self._subs)
            if s is not None
        ]
        return _MergedSyncState(states) if states else None

    # -- index interface -----------------------------------------------------

    def bulk_load(self, pairs, future_keys=None) -> None:
        """Partition *pairs* by shard and bulk load every sub-tree.

        Shard boundaries are rebuilt from the loaded key distribution
        first (quantile carve), so each sub-tree starts with a balanced
        item count; every shard must receive at least one item.
        """
        ordered = sorted(set(k for k, _ in pairs))
        self.shard_map.rebuild_bounds(ordered)
        buckets = partition_pairs(pairs, self.shard_map)
        for shard, bucket in enumerate(buckets):
            if not bucket:
                raise ValueError(
                    f"shard {shard} received no bulk-load keys "
                    f"({len(pairs)} keys over {self.num_shards} shards)"
                )
            if future_keys is not None:
                self._subs[shard].bulk_load(bucket, future_keys=future_keys)
            else:
                self._subs[shard].bulk_load(bucket)

    def client(self, ctx) -> "ShardedClient":
        return ShardedClient(self, ctx)

    def collect_items(self) -> List[Tuple[int, int]]:
        items: List[Tuple[int, int]] = []
        for sub in self._subs:
            items.extend(sub.collect_items())
        return items

    def remote_memory_bytes(self) -> int:
        return sum(
            mn.allocator.bytes_used for mn in self.cluster.mns.values()
        )

    def cache_bytes_needed(self) -> int:
        return sum(
            sub.cache_bytes_needed()
            for sub in self._subs
            if hasattr(sub, "cache_bytes_needed")
        )

    def shard_gauges(self) -> Dict[str, float]:
        """Per-shard/per-MN traffic gauges plus migration counters."""
        gauges = self.heat.gauges(self.shard_map)
        gauges["shard.migrations"] = float(self.migrations)
        gauges["shard.epoch"] = float(self.shard_map.epoch)
        return gauges

    # -- cache ownership -----------------------------------------------------

    def cn_lines(self, cn, shard: int) -> Set[int]:
        """The CN-level registry of cache lines *shard* admitted on *cn*."""
        registry = getattr(cn, "_shard_lines", None)
        if registry is None:
            registry = cn._shard_lines = {}
        return registry.setdefault(shard, set())

    def handoff_owner(self, shard: int, cn_id: int) -> None:
        """Hand *shard*'s cache ownership to *cn_id* (DEX handoff).

        The previous owner's admitted lines are invalidated immediately;
        clients notice the epoch bump on their next routed op and
        rebuild their admission views.
        """
        old = self.shard_map.owner_cn(shard)
        if old == cn_id:
            return
        self._invalidate_cn_lines(shard, cn_ids=(old,))
        self.shard_map.reassign_owner(shard, cn_id)

    def _invalidate_cn_lines(self, shard: int,
                             cn_ids: Optional[Sequence[int]] = None) -> None:
        for cn in self.cluster.cns:
            if cn_ids is not None and cn.cn_id not in cn_ids:
                continue
            registry = getattr(cn, "_shard_lines", None)
            lines = registry.pop(shard, None) if registry else None
            for addr in lines or ():
                cn.cache.invalidate(addr)

    def _invalidate_mn_lines(self, mn_id: int) -> None:
        """Shared-cache fallback: drop every line resident on *mn_id*."""
        for cn in self.cluster.cns:
            for addr in cn.cache.addrs():
                if addr_mn(addr) == mn_id:
                    cn.cache.invalidate(addr)

    # -- online migration ----------------------------------------------------

    def _leaf_chain(self, sub) -> List[int]:
        """Host-side leaf addresses of a B-link-tree sub-index, left to
        right along the sibling chain (parents can lag a half-split)."""
        from repro.core.nodes import LeafNodeView

        addr = sub.leftmost_leaf()
        leaves: List[int] = []
        leaf_layout = sub.leaf_layout
        guard = 0
        while addr != NULL_ADDR and guard < 65536:
            guard += 1
            leaves.append(addr)
            raw = sub._host_read(addr, leaf_layout.raw_size)
            view = LeafNodeView(leaf_layout, StripedSpan(raw, 0))
            addr = view.replica_sibling(0)
        return leaves

    def _context_for_migration(self):
        if self._migration_ctx is None:
            from repro.cluster.compute import ClientContext

            cn = self.cluster.cns[0]
            self._migration_ctx = ClientContext(
                cn, len(cn.clients) + 17, self.cluster.mns
            )
            injector = getattr(self.cluster, "fault_injector", None)
            if injector is not None:
                self._migration_ctx.qp.injector = injector
        return self._migration_ctx

    def migrate_shard(self, shard: int, target_mn: int,
                      ctx=None) -> Generator:
        """Move *shard* to *target_mn* online: drain, copy, flip, refresh.

        Runs as an engine process.  The copy-out reads every leaf under
        its lease lock via RDMA verbs (so injected faults hit it and the
        retry/lease-steal machinery recovers); the rebuilt sub-tree's
        leaves are then written to the target MN, charging the transfer.
        """
        from repro.core.nodes import LeafNodeView

        smap = self.shard_map
        engine = self.cluster.engine
        old_mn = smap.mn_of(shard)
        if old_mn == target_mn or smap.migrating is not None:
            return False
        ctx = ctx or self._context_for_migration()
        started = engine.now
        # 1. Drain: gate new ops on this shard, wait out in-flight ones.
        smap.migrating = shard
        smap.migration_done = engine.event()
        deadline = engine.now + self.drain_timeout
        while self.in_flight[shard] > 0 and engine.now < deadline:
            yield engine.timeout(5e-6)
        try:
            # 2. Copy-out under per-leaf lease locks, via verbs.
            sub = self._subs[shard]
            items: List[Tuple[int, int]] = []
            if hasattr(sub, "leaf_layout") and hasattr(sub, "root_addr"):
                client = sub.client(ctx)
                layout = sub.leaf_layout
                for leaf_addr in self._leaf_chain(sub):
                    lock_addr = leaf_addr + layout.lock_offset
                    word = yield from client._lock(lock_addr)
                    raw = yield from ctx.qp.read(leaf_addr, layout.raw_size)
                    view = LeafNodeView(layout, StripedSpan(raw, 0))
                    items.extend(view.pairs())
                    yield from client._unlock_remote(lock_addr, word)
                items.sort()
            else:
                # Families without the B-link leaf chain (radix): the
                # drain already fenced writers; copy host-side.
                items = sorted(sub.collect_items())
            if not items:
                return False
            # 3. Rebuild on the target MN; charge the copy-in writes.
            new_sub = self._build_sub(shard, mn_id=target_mn)
            new_sub.bulk_load(items)
            if hasattr(new_sub, "leaf_layout"):
                layout = new_sub.leaf_layout
                for leaf_addr in self._leaf_chain(new_sub):
                    raw = new_sub._host_read(leaf_addr, layout.raw_size)
                    yield from ctx.qp.write(leaf_addr, bytes(raw))
            # 4. Flip the map epoch; invalidate stale cached lines.
            self._subs[shard] = new_sub
            smap.reassign(shard, target_mn)
            if self.cache_mode == CACHE_PARTITIONED:
                self._invalidate_cn_lines(shard)
            else:
                self._invalidate_mn_lines(old_mn)
            self.migrations += 1
            if BUS.active:
                BUS.emit(
                    "shard.migrate",
                    engine.now,
                    shard=shard,
                    source=old_mn,
                    target=target_mn,
                    items=len(items),
                    duration_us=round((engine.now - started) * 1e6, 1),
                )
        finally:
            # 5. Release the gate; parked lanes re-route via the epoch.
            smap.migrating = None
            done, smap.migration_done = smap.migration_done, None
            if done is not None:
                done.succeed()
        return True

    def rebalancer(self, stop, interval: float = 200e-6,
                   ctx=None) -> Generator:
        """Background hot-shard rebalancing loop (engine process).

        Every *interval* simulated seconds the heat tracker decays its
        per-shard EWMA rates; when a shard runs hotter than
        ``up_factor`` times the mean it is migrated to the coolest MN.
        *stop* is a nullary predicate — the loop exits once it returns
        true (typically: all workload lanes finished) so the engine
        heap can drain.
        """
        engine = self.cluster.engine
        smap = self.shard_map
        while not stop():
            yield engine.timeout(interval)
            self.heat.decay()
            hot = self.heat.hot_shard(engine.now)
            if hot is None:
                continue
            load: Dict[int, float] = {mn: 0.0 for mn in self.cluster.mns}
            for shard in range(self.num_shards):
                load[smap.mn_of(shard)] += self.heat.rate[shard]
            target = min(sorted(load), key=lambda mn: load[mn])
            if target != smap.mn_of(hot):
                yield from self.migrate_shard(hot, target, ctx)


class ShardedClient:
    """Key-routed client facade over per-shard sub-clients.

    One instance per lane context (mirroring ``index.client(ctx)``
    everywhere else), so lane-private sub-client state is preserved.
    Sub-clients are built lazily per shard and rebuilt when the shard
    map epoch moves (migration re-homed a shard, or cache ownership
    changed hands).
    """

    def __init__(self, index: ShardedIndex, ctx) -> None:
        self.index = index
        self.ctx = ctx
        self._epoch = index.shard_map.epoch
        self._bound: Dict[int, Tuple[object, object]] = {}
        self._partitioned = index.cache_mode == CACHE_PARTITIONED
        self._cn_id = ctx.cn.cn_id

    # -- routing -------------------------------------------------------------

    def _refresh(self) -> None:
        """Adopt the current shard-map epoch: drop bindings whose
        sub-index or cache-ownership changed underneath them."""
        index = self.index
        smap = index.shard_map
        for shard in list(self._bound):
            sub, _client = self._bound[shard]
            if sub is not index._subs[shard]:
                del self._bound[shard]
            elif self._partitioned:
                owned = smap.owner_cn(shard) == self._cn_id
                view = self._bound[shard][1].ctx.cache
                if isinstance(view, ShardCacheView) and view._admit != owned:
                    del self._bound[shard]
        self._epoch = smap.epoch

    def _sub_client(self, shard: int):
        bound = self._bound.get(shard)
        if bound is not None:
            return bound[1]
        index = self.index
        sub = index._subs[shard]
        if self._partitioned:
            owned = index.shard_map.owner_cn(shard) == self._cn_id
            view = ShardCacheView(
                self.ctx.cn.cache, owned,
                index.cn_lines(self.ctx.cn, shard),
            )
            client = sub.client(_ShardClientContext(self.ctx, view))
        else:
            client = sub.client(self.ctx)
        self._bound[shard] = (sub, client)
        return client

    def _enter(self, key: int) -> Generator:
        """Route *key*: returns its (sub-client, shard), parking while
        the shard is mid-migration.  No yields on the fast path."""
        smap = self.index.shard_map
        if smap.epoch != self._epoch:
            self._refresh()
        shard = smap.shard_of(key)
        while smap.migrating == shard:
            yield smap.migration_done
            if smap.epoch != self._epoch:
                self._refresh()
        self.index.heat.record(shard)
        return self._sub_client(shard), shard

    def outage_delay(self, key: int) -> float:
        """Seconds until *key*'s home MN leaves its outage window (0 when
        healthy) — shard-aware lane parking, consulted by op lanes."""
        injector = getattr(self.ctx.qp, "injector", None)
        if injector is None:
            return 0.0
        smap = self.index.shard_map
        mn_id = smap.mn_of(smap.shard_of(key))
        now = self.index.cluster.engine.now
        delay = 0.0
        for outage in injector.plan.outages:
            if outage.mn_id == mn_id and outage.start <= now < outage.end:
                delay = max(delay, outage.end - now)
        return delay

    # -- op interface --------------------------------------------------------

    def _routed(self, op: str, key: int, *args) -> Generator:
        """Sub-client operation *op* on the shard owning *key*, counted
        in flight for the migrator."""
        sub, shard = yield from self._enter(key)
        self.index.in_flight[shard] += 1
        try:
            result = yield from getattr(sub, op)(key, *args)
        finally:
            self.index.in_flight[shard] -= 1
        return result

    def search(self, key: int) -> Generator:
        return self._routed("search", key)

    def insert(self, key: int, value: int) -> Generator:
        return self._routed("insert", key, value)

    def update(self, key: int, value: int) -> Generator:
        return self._routed("update", key, value)

    def delete(self, key: int) -> Generator:
        return self._routed("delete", key)

    def scan(self, key: int, count: int) -> Generator:
        """Range scan, fanned out across shards and merged in key order.

        Shards hold contiguous key ranges, so the per-shard results
        concatenate in shard order already key-sorted.  The sub-scans
        run as parallel engine processes (the same fan-out primitive
        ``read_batch`` uses), overlapping their verb latency.
        """
        index = self.index
        smap = index.shard_map
        if smap.epoch != self._epoch:
            self._refresh()
        first = smap.shard_of(key)
        if index.num_shards == 1 or first == index.num_shards - 1:
            result = yield from self._routed("scan", key, count)
            return result
        engine = index.cluster.engine
        procs = []
        for shard in range(first, index.num_shards):
            low = key if shard == first else smap.bounds[shard]
            procs.append(
                engine.process(
                    self._scan_shard(shard, low, count),
                    name=f"scan-s{shard}",
                )
            )
        chunks = yield engine.all_of(procs)
        merged: List[Tuple[int, int]] = []
        for chunk in chunks:
            merged.extend(chunk)
            if len(merged) >= count:
                break
        return merged[:count]

    def _scan_shard(self, shard: int, low: int, count: int) -> Generator:
        smap = self.index.shard_map
        while smap.migrating == shard:
            yield smap.migration_done
            if smap.epoch != self._epoch:
                self._refresh()
        self.index.heat.record(shard)
        sub = self._sub_client(shard)
        self.index.in_flight[shard] += 1
        try:
            result = yield from sub.scan(low, count)
        finally:
            self.index.in_flight[shard] -= 1
        return result
