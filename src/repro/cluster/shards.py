"""Key-space sharding: the static shard map.

The single-pool assumption — one index tree, every allocation striped
round-robin across MNs — is replaced here by a first-class
:class:`ShardMap` owned by the cluster:

* **key -> shard**: the key space is carved into ``num_shards``
  contiguous ranges.  Boundaries start as an even carve of the full key
  domain and are rebuilt from the bulk-loaded key distribution
  (:meth:`ShardMap.rebuild_bounds`), so shards hold balanced item
  counts rather than balanced key ranges.
* **shard -> MN**: each shard is homed on one memory node, round-robin;
  all its allocations, its root-pointer slot, and all its verb traffic
  go there.

Shards are static: nothing moves a shard between MNs or ties it to one
CN's cache once the bulk load has placed it (DESIGN.md §14 says why).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Sequence, Tuple

from repro.layout import MAX_KEY
from repro.pairs import Pairs

__all__ = ["ShardMap"]


class ShardMap:
    """key -> shard -> home MN.

    ``bounds`` has ``num_shards + 1`` entries with ``bounds[0] == 0``
    and ``bounds[-1] == MAX_KEY``; shard ``s`` covers keys in
    ``[bounds[s], bounds[s + 1])``.
    """

    def __init__(self, num_shards: int, num_mns: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.bounds: List[int] = [
            i * MAX_KEY // num_shards for i in range(num_shards)
        ] + [MAX_KEY]
        self.home: List[int] = [s % num_mns for s in range(num_shards)]

    def shard_of(self, key: int) -> int:
        """The shard whose key range contains *key*."""
        if self.num_shards == 1:
            return 0
        return min(bisect_right(self.bounds, key) - 1, self.num_shards - 1)

    def mn_of(self, shard: int) -> int:
        """The memory node homing *shard*."""
        return self.home[shard]

    def rebuild_bounds(self, sorted_keys: Sequence[int]) -> None:
        """Re-carve shard boundaries to balance items across shards.

        *sorted_keys* is the ascending bulk-load key list; boundary
        ``i`` lands on the ``i/num_shards`` quantile so every shard
        starts with (nearly) the same item count.  Keys inserted later
        beyond the loaded range fall into the last shard.
        """
        n = len(sorted_keys)
        if n == 0 or self.num_shards == 1:
            return
        bounds = [0]
        for i in range(1, self.num_shards):
            bounds.append(sorted_keys[i * n // self.num_shards])
        bounds.append(MAX_KEY)
        self.bounds = bounds


def partition_pairs(pairs: Iterable[Tuple[int, int]], shard_map: ShardMap) -> List[Pairs]:
    """Split sorted (key, value) pairs into per-shard slices of their
    columns, cut where each shard's lower bound falls (what
    :meth:`ShardMap.shard_of` of every key would say)."""
    pairs = Pairs.of(pairs)
    keys = pairs.key_column
    cuts = [0] + [bisect_left(keys, bound) for bound in shard_map.bounds[1:-1]] + [len(pairs)]
    return [pairs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
