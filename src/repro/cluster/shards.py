"""Key-space sharding: the shard map, cache ownership, heat tracking.

The single-pool assumption — one index tree, every allocation striped
round-robin across MNs, every CN caching the same internal nodes — is
replaced here by a first-class :class:`ShardMap` owned by the cluster:

* **key -> shard**: the key space is carved into ``num_shards``
  contiguous ranges.  Boundaries start as an even carve of the full key
  domain and are rebuilt online from the bulk-loaded key distribution
  (:meth:`ShardMap.rebuild_bounds`), so shards hold balanced item
  counts rather than balanced key ranges.
* **shard -> MN**: each shard is homed on one memory node; all its
  allocations, its root-pointer slot, and all its verb traffic go
  there.  :meth:`ShardMap.reassign` moves a shard (online migration)
  and bumps the map **epoch**; clients compare epochs on every routed
  op and refresh their routing state on mismatch.
* **shard -> CN** (``cache_mode="partitioned"``): DEX-style logical
  partitioning — each compute node exclusively *owns* a subset of
  shards and its :class:`~repro.cluster.cache.IndexCache` only admits
  nodes of owned shards (:class:`ShardCacheView`).  Ownership handoff
  invalidates the lines the previous owner admitted.

:class:`ShardHeatTracker` folds the per-shard op counters into
per-shard/per-MN gauges and flags hot shards with the same
decaying-EWMA + hysteresis pattern as
:class:`repro.core.adaptive.ContentionEstimator`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.layout import MAX_KEY
from repro.obs.bus import BUS

__all__ = [
    "ShardCacheView",
    "ShardHeatTracker",
    "ShardMap",
]

#: The ``ClusterConfig.cache_mode`` under which a CN's cache admits only
#: nodes of the shards it owns.
CACHE_PARTITIONED = "partitioned"


class ShardMap:
    """key -> shard -> {home MN, owner CN}, rebuildable online.

    ``bounds`` has ``num_shards + 1`` entries with ``bounds[0] == 0``
    and ``bounds[-1] == MAX_KEY``; shard ``s`` covers keys in
    ``[bounds[s], bounds[s + 1])``.  ``epoch`` increments on every
    reassignment or bounds rebuild; cached per-client routing state is
    valid only for the epoch it was built against.
    """

    def __init__(self, num_shards: int, num_mns: int, num_cns: int = 1) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.num_mns = num_mns
        self.num_cns = max(1, num_cns)
        self.bounds: List[int] = [
            i * MAX_KEY // num_shards for i in range(num_shards)
        ] + [MAX_KEY]
        self.home: List[int] = [s % num_mns for s in range(num_shards)]
        self.owner: List[int] = [s % self.num_cns for s in range(num_shards)]
        self.epoch = 0
        #: Shard currently being migrated (ops against it park on
        #: ``migration_done``), or None.
        self.migrating: Optional[int] = None
        self.migration_done = None

    def shard_of(self, key: int) -> int:
        """The shard whose key range contains *key*."""
        if self.num_shards == 1:
            return 0
        return min(bisect_right(self.bounds, key) - 1, self.num_shards - 1)

    def mn_of(self, shard: int) -> int:
        """The memory node currently homing *shard*."""
        return self.home[shard]

    def owner_cn(self, shard: int) -> int:
        """The compute node owning *shard*'s cache partition."""
        return self.owner[shard]

    def shards_on(self, mn_id: int) -> List[int]:
        return [s for s, home in enumerate(self.home) if home == mn_id]

    def shards_owned_by(self, cn_id: int) -> List[int]:
        return [s for s, owner in enumerate(self.owner) if owner == cn_id]

    def rebuild_bounds(self, sorted_keys: Sequence[int]) -> None:
        """Re-carve shard boundaries to balance items across shards.

        *sorted_keys* is the ascending bulk-load key list; boundary
        ``i`` lands on the ``i/num_shards`` quantile so every shard
        starts with (nearly) the same item count.  Keys inserted later
        beyond the loaded range fall into the last shard.  Bumps the
        epoch when the boundaries actually move.
        """
        n = len(sorted_keys)
        if n == 0 or self.num_shards == 1:
            return
        bounds = [0]
        for i in range(1, self.num_shards):
            bounds.append(sorted_keys[i * n // self.num_shards])
        bounds.append(MAX_KEY)
        if bounds != self.bounds:
            self.bounds = bounds
            self.epoch += 1

    def reassign(self, shard: int, mn_id: int) -> None:
        """Re-home *shard* onto *mn_id* (migration flip); bumps epoch."""
        if self.home[shard] != mn_id:
            self.home[shard] = mn_id
            self.epoch += 1
            if BUS.active:
                BUS.emit("shard.epoch", epoch=self.epoch, shard=shard, mn=mn_id)

    def reassign_owner(self, shard: int, cn_id: int) -> None:
        """Hand *shard*'s cache ownership to *cn_id*; bumps epoch."""
        if self.owner[shard] != cn_id:
            self.owner[shard] = cn_id
            self.epoch += 1


class ShardCacheView:
    """A per-shard admission view over one CN's :class:`IndexCache`.

    Owned shards pass through to the real cache, recording every
    admitted address in the CN-level per-shard line registry so a later
    ownership handoff (or shard migration) can invalidate exactly the
    lines this shard admitted.  Non-owned shards never admit: lookups
    fall through to the real cache (addresses are globally unique, so
    a never-admitted node simply misses and is counted as such), while
    ``put`` drops the node on the floor — the DEX exclusivity rule.
    """

    __slots__ = ("_cache", "_admit", "_lines")

    def __init__(self, cache, admit: bool, lines: Set[int]) -> None:
        self._cache = cache
        self._admit = admit
        self._lines = lines

    def get(self, addr: int):
        return self._cache.get(addr)

    def peek(self, addr: int):
        return self._cache.peek(addr)

    def put(self, addr: int, node, nbytes: int) -> None:
        if self._admit:
            self._cache.put(addr, node, nbytes)
            self._lines.add(addr)

    def invalidate(self, addr: int) -> bool:
        self._lines.discard(addr)
        return self._cache.invalidate(addr)

    def __contains__(self, addr: int) -> bool:
        return addr in self._cache


class ShardHeatTracker:
    """Per-shard traffic gauges + decaying-EWMA hot-shard detection.

    Mirrors the :class:`~repro.core.adaptive.ContentionEstimator`
    pattern: pure function calls (no yields, no RNG) fed from the
    routing hot path, an exponentially-decayed per-shard op rate, an
    ``up_factor`` threshold against the mean rate, and a minimum dwell
    between detections so the rebalancer does not flap.
    """

    def __init__(
        self,
        num_shards: int,
        alpha: float = 0.25,
        up_factor: float = 2.0,
        min_dwell: float = 500e-6,
    ) -> None:
        self.num_shards = num_shards
        self.alpha = alpha
        self.up_factor = up_factor
        self.min_dwell = min_dwell
        self.ops: List[int] = [0] * num_shards
        self.rate: List[float] = [0.0] * num_shards
        self._window: List[int] = [0] * num_shards
        self._last_flag = -float("inf")

    def record(self, shard: int) -> None:
        """Count one routed op against *shard* (hot path; O(1))."""
        self.ops[shard] += 1
        self._window[shard] += 1

    def decay(self) -> None:
        """Fold the current window into the EWMA rates (one sample tick)."""
        alpha = self.alpha
        for shard in range(self.num_shards):
            self.rate[shard] += alpha * (self._window[shard] - self.rate[shard])
            self._window[shard] = 0

    def hot_shard(self, now: float) -> Optional[int]:
        """The hottest shard if it crosses the threshold, else None.

        A shard is hot when its EWMA rate exceeds ``up_factor`` times
        the mean rate across shards; detections are rate-limited by
        ``min_dwell`` simulated seconds.
        """
        if self.num_shards < 2 or now - self._last_flag < self.min_dwell:
            return None
        mean = sum(self.rate) / self.num_shards
        if mean <= 0.0:
            return None
        hottest = max(range(self.num_shards), key=lambda s: self.rate[s])
        if self.rate[hottest] > self.up_factor * mean:
            self._last_flag = now
            if BUS.active:
                BUS.emit(
                    "shard.hot",
                    shard=hottest,
                    rate=round(self.rate[hottest], 3),
                    mean=round(mean, 3),
                )
            return hottest
        return None

    def gauges(self, shard_map: ShardMap) -> Dict[str, float]:
        """Per-shard and per-MN gauge snapshot (obs notes format)."""
        gauges: Dict[str, float] = {}
        per_mn: Dict[int, int] = {}
        for shard in range(self.num_shards):
            gauges[f"shard.ops.s{shard}"] = float(self.ops[shard])
            mn = shard_map.mn_of(shard)
            per_mn[mn] = per_mn.get(mn, 0) + self.ops[shard]
        for mn, total in sorted(per_mn.items()):
            gauges[f"shard.ops.mn{mn}"] = float(total)
        return gauges


def partition_pairs(
    pairs: Sequence[Tuple[int, int]], shard_map: ShardMap
) -> List[List[Tuple[int, int]]]:
    """Split sorted (key, value) pairs into per-shard lists."""
    buckets: List[List[Tuple[int, int]]] = [
        [] for _ in range(shard_map.num_shards)
    ]
    for key, value in pairs:
        buckets[shard_map.shard_of(key)].append((key, value))
    return buckets
