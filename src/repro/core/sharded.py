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
continues a range scan that runs past its shard's upper bound into the
next shard, and tells op lanes how long to park while a key's home MN is
inside an injected outage window.  Shards are static: once the bulk
load has placed them, no shard moves (DESIGN.md §14).
"""

from __future__ import annotations

from typing import Dict, Generator, Iterator, List, Optional, Tuple

from repro.cluster.shards import partition_pairs
from repro.core.family import FamilyIndexBase
from repro.errors import ConfigError

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
        self.num_shards = self.shard_map.num_shards
        allocator = cluster.partitioned_allocator
        self._subs: List[object] = []
        for shard in range(self.num_shards):
            view = _ShardClusterView(cluster, self.shard_map.mn_of(shard))
            sub = family.factory(
                view,
                value_size=value_size,
                span=span,
                neighborhood=neighborhood,
                overrides=chime_overrides,
            )
            if hasattr(sub, "root_ptr_addr"):
                sub.root_ptr_addr = allocator.root_addr(shard)
            self._subs.append(sub)

    def shards(self) -> List[Tuple[int, object]]:
        """(shard, sub-index) pairs, in key order."""
        return list(enumerate(self._subs))

    @property
    def retry_policy(self):
        return self._subs[0].retry_policy

    @retry_policy.setter
    def retry_policy(self, policy) -> None:
        """Every sub-tree's clients retry under *policy*."""
        for sub in self._subs:
            sub.retry_policy = policy

    # -- index interface -----------------------------------------------------

    def bulk_load(self, pairs, future_keys=None) -> None:
        """Partition *pairs* by shard and bulk load every sub-tree.

        Shard boundaries are rebuilt from the loaded key distribution
        first (quantile carve), so each sub-tree starts with a balanced
        item count; every shard needs at least one item, so there may
        not be more shards than distinct keys.
        """
        pairs = FamilyIndexBase._checked_pairs(pairs)
        if len(pairs) < self.num_shards:
            raise ConfigError(
                f"ClusterConfig.num_shards={self.num_shards} exceeds the "
                f"{len(pairs)} bulk-loaded keys; every shard needs at "
                f"least one"
            )
        self.shard_map.rebuild_bounds(pairs.key_column)
        buckets = partition_pairs(pairs, self.shard_map)
        for sub, bucket in zip(self._subs, buckets):
            if future_keys is not None:
                sub.bulk_load(bucket, future_keys=future_keys)
            else:
                sub.bulk_load(bucket)

    def client(self, ctx) -> "ShardedClient":
        return ShardedClient(self, ctx)

    def collect_items(self) -> List[Tuple[int, int]]:
        items: List[Tuple[int, int]] = []
        for sub in self._subs:
            items.extend(sub.collect_items())
        return items

    def lock_lines(self) -> Iterator[Tuple[str, int]]:
        for shard, sub in self.shards():
            for node, addr in sub.lock_lines():
                yield f"shard {shard}: {node}", addr

    def sealed_slots(self) -> Iterator[str]:
        for shard, sub in self.shards():
            for slot in sub.sealed_slots():
                yield f"shard {shard}: {slot}"

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


class ShardedClient:
    """Key-routed client facade over per-shard sub-clients.

    One instance per lane context (mirroring ``index.client(ctx)``
    everywhere else), so lane-private sub-client state is preserved.
    Sub-clients are built lazily, one per shard this lane touches.
    """

    def __init__(self, index: ShardedIndex, ctx) -> None:
        self.index = index
        self.ctx = ctx
        self._clients: Dict[int, object] = {}

    # -- routing -------------------------------------------------------------

    def _sub_client(self, shard: int):
        client = self._clients.get(shard)
        if client is None:
            client = self._clients[shard] = self.index._subs[shard].client(self.ctx)
        return client

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
        """Sub-client operation *op* on the shard owning *key*."""
        shard = self.index.shard_map.shard_of(key)
        return getattr(self._sub_client(shard), op)(key, *args)

    def search(self, key: int) -> Generator:
        return self._routed("search", key)

    def insert(self, key: int, value: int) -> Generator:
        return self._routed("insert", key, value)

    def update(self, key: int, value: int) -> Generator:
        return self._routed("update", key, value)

    def delete(self, key: int) -> Generator:
        return self._routed("delete", key)

    def scan(self, key: int, count: int) -> Generator:
        """Range scan: *key*'s shard, then, while the result is short,
        each next shard from its lower bound for the remaining count.

        Shards hold contiguous key ranges, so each shard's pairs follow
        the previous shard's in key order, and a scan that ends inside
        its first shard touches no other shard's MN.
        """
        smap = self.index.shard_map
        shard = smap.shard_of(key)
        result = yield from self._sub_client(shard).scan(key, count)
        while len(result) < count and shard + 1 < self.index.num_shards:
            shard += 1
            more = yield from self._sub_client(shard).scan(smap.bounds[shard], count - len(result))
            result = result + more
        return result
