"""The computing-side index cache.

Each compute node dedicates a byte budget to caching remote index
structure (internal tree nodes for CHIME/Sherman, radix nodes for SMART,
model parameters for ROLEX).  The cache is shared by all clients on the
CN — cache consumption is one axis of the paper's central trade-off, so
byte accounting must be exact: every entry carries the byte size of the
remote node image it mirrors.

Eviction is LRU.  Entries can be *invalidated* when a validation check
discovers they are stale (paper §4.2.2/§4.2.3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.obs.bus import BUS


class IndexCache:
    """Byte-budgeted LRU cache keyed by remote node address."""

    def __init__(self, capacity_bytes: Optional[int]) -> None:
        #: None means unlimited (the SMART-Opt configuration).
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[int, tuple[Any, int]]" = OrderedDict()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, addr: int) -> Optional[Any]:
        """Look up the cached image of the node at *addr* (LRU-touching)."""
        entry = self._entries.get(addr)
        if entry is None:
            self.misses += 1
            if BUS.active:
                BUS.emit("cache.miss", addr=addr)
            return None
        self._entries.move_to_end(addr)
        self.hits += 1
        if BUS.active:
            BUS.emit("cache.hit", addr=addr)
        return entry[0]

    def put(self, addr: int, node: Any, nbytes: int) -> None:
        """Insert/replace the cached node, evicting LRU entries to fit.

        A node larger than the whole budget is simply not cached.
        """
        displaced = self._entries.pop(addr, None)
        if displaced is not None:
            self.bytes_used -= displaced[1]
        if self.capacity_bytes is not None and nbytes > self.capacity_bytes:
            # The new image is uncacheable, so the displaced entry is
            # gone for good: account for it as an eviction rather than
            # letting it vanish from the books.
            if displaced is not None:
                self.evictions += 1
                if BUS.active:
                    BUS.emit("cache.evict", addr=addr, bytes=displaced[1])
            return
        if self.capacity_bytes is not None:
            while self._entries and self.bytes_used + nbytes > self.capacity_bytes:
                evicted_addr, (_node, evicted_bytes) = \
                    self._entries.popitem(last=False)
                self.bytes_used -= evicted_bytes
                self.evictions += 1
                if BUS.active:
                    BUS.emit("cache.evict", addr=evicted_addr,
                             bytes=evicted_bytes)
        self._entries[addr] = (node, nbytes)
        self.bytes_used += nbytes

    def invalidate(self, addr: int) -> bool:
        """Drop a stale entry; returns whether it was present."""
        entry = self._entries.pop(addr, None)
        if entry is None:
            return False
        self.bytes_used -= entry[1]
        self.invalidations += 1
        if BUS.active:
            BUS.emit("cache.invalidate", addr=addr, bytes=entry[1])
        return True

    def clear(self) -> None:
        self._entries.clear()
        self.bytes_used = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
