"""Marlin (ICPP '23): a concurrent, write-optimized B+ tree on DM for
variable-length values.

Modelled as the paper describes it relative to Sherman: values live in
indirect blocks (an 8-byte pointer per leaf entry), and clients may
update *different entries of the same leaf concurrently* — an update
CASes the entry's value pointer instead of taking the node lock, which
is why Marlin shows the lowest update tail latency in the CHIME paper's
Figure 13 (YCSB A).  Structural operations (insert/split/delete) still
use the node lock via the inherited Sherman machinery.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.baselines.sherman import ShermanClient, ShermanConfig, ShermanIndex
from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.layout.versions import raw_of


class MarlinIndex(ShermanIndex):
    """Host-side state of a Marlin tree (Sherman + indirect values)."""

    def __init__(self, cluster: Cluster,
                 config: Optional[ShermanConfig] = None) -> None:
        base = config or ShermanConfig()
        if not base.indirect_values:
            base = ShermanConfig(span=base.span, key_size=base.key_size,
                                 value_size=base.value_size,
                                 indirect_values=True,
                                 bulk_load_factor=base.bulk_load_factor)
        super().__init__(cluster, base)

    def client(self, ctx: ClientContext) -> "MarlinClient":
        return MarlinClient(self, ctx)


class MarlinClient(ShermanClient):
    """Sherman client with lock-free (CAS-based) value-pointer updates."""

    def _update(self, key: int, value: int) -> Generator:
        """Out-of-place update: write a fresh value block, then CAS the
        8-byte value pointer inside the leaf entry.

        No node lock is taken, so updates to distinct entries of one leaf
        proceed concurrently; a CAS failure (concurrent update of the
        *same* entry, or the entry moved) retries from traversal.
        """
        layout = self.layout
        retry = self.retry.start("update({})", self.engine, self.ctx.rng,
                                 key)
        while retry.check():
            ref = yield from self._locate_leaf(key)
            leaf_addr, view = yield from self._leaf_for(ref, key)
            if view is None:
                continue
            index = view.find(key)
            if index is None:
                return False
            _k, old_block = view.entry(index)
            pointer_logical = (layout.entry_offset(index) + 1
                               + layout.key_size)
            raw_start = raw_of(pointer_logical)
            if raw_of(pointer_logical + 7) != raw_start + 7:
                # The pointer straddles a cache-line version byte in the
                # striped image, so an 8-byte CAS cannot address it
                # contiguously; fall back to the locked update path
                # (real Marlin pads entries so pointers stay aligned).
                result = yield from super()._update(key, value)
                return result
            new_block = yield from self._write_block(key, value)
            _old, swapped = yield from self.qp.cas(leaf_addr + raw_start,
                                                   old_block, new_block)
            if swapped:
                return True
            self.qp.stats.retries += 1
            yield from retry.backoff()
