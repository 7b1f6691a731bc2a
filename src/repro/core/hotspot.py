"""The hotness-aware speculative read mechanism (paper §4.3).

Each CN hosts one :class:`HotspotBuffer`: a byte-budgeted exact-LFU cache of
*hotspot descriptors* — precise (leaf address, entry index) locations of
frequently read KV entries, guarded by a 2-byte key fingerprint.  Before a
neighborhood read, the client consults the buffer; a hit lets it READ one
entry instead of the whole neighborhood, eliminating the residual read
amplification of hopscotch hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.layout.codec import fingerprint16
from repro.obs.bus import BUS

#: Bytes per buffer entry: 8 (leaf addr) + 2 (key index) + 2 (fingerprint)
#: + 4 (counter), as in Figure 11.
ENTRY_BYTES = 16


@dataclass(slots=True)
class HotspotRecord:
    """One descriptor in the buffer."""

    leaf_addr: int
    key_index: int
    fingerprint: int
    counter: int = 1


class HotspotBuffer:
    """Exact-LFU buffer of hotspot descriptors, shared per CN.

    Records are filed in one insertion-ordered bucket per counter value,
    and the non-empty counters form an ascending circular chain through
    the sentinel 0, so ``_higher[0]`` is the least counter.  The victim
    is the front of that bucket: the least used record and, on a tie,
    the one that has held its counter longest.  Recording, invalidating
    and evicting are O(1).
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = max(capacity_bytes // ENTRY_BYTES, 0)
        self._records: Dict[Tuple[int, int], HotspotRecord] = {}
        self._buckets: Dict[int, Dict[Tuple[int, int], HotspotRecord]] = {}
        self._higher: Dict[int, int] = {0: 0}
        self._lower: Dict[int, int] = {0: 0}
        self.hits = 0
        self.lookups = 0
        self.correct_speculations = 0
        self.wrong_speculations = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def bytes_used(self) -> int:
        return len(self._records) * ENTRY_BYTES

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def record_access(self, leaf_addr: int, key_index: int, key: int) -> None:
        """Update the buffer after reading a remote KV entry (§4.3).

        A matching fingerprint increments the counter; a mismatch means
        the descriptor went stale (the entry now holds another key), so
        it is refreshed with counter 1; an absent descriptor is inserted,
        evicting the least frequently used one if the buffer is full.
        """
        if self.capacity == 0:
            return
        fingerprint = fingerprint16(key)
        slot = (leaf_addr, key_index)
        record = self._records.get(slot)
        if record is None:
            if len(self._records) >= self.capacity:
                self.invalidate(*next(iter(self._buckets[self._higher[0]])))
            record = self._records[slot] = HotspotRecord(
                leaf_addr, key_index, fingerprint)
        elif record.fingerprint == fingerprint:
            count = record.counter
            self._file(slot, record, count + 1, self._unfile(slot, count))
            return
        else:
            record.fingerprint = fingerprint
            self._unfile(slot, record.counter)
        self._file(slot, record, 1, 0)

    def invalidate(self, leaf_addr: int, key_index: int) -> None:
        """Drop a descriptor known to be stale (e.g. after a node split)."""
        record = self._records.pop((leaf_addr, key_index), None)
        if record is not None:
            self._unfile((leaf_addr, key_index), record.counter)

    def lookup(self, leaf_addr: int, home: int, neighborhood: int,
               span: int, key: int) -> Optional[HotspotRecord]:
        """Find the hottest credible descriptor for *key* in its
        neighborhood (the first in neighborhood order on a tie); None
        means do a normal neighborhood read."""
        self.lookups += 1
        fingerprint = fingerprint16(key)
        best: Optional[HotspotRecord] = None
        for offset in range(neighborhood):
            index = (home + offset) % span
            record = self._records.get((leaf_addr, index))
            if record is None or record.fingerprint != fingerprint:
                continue
            if best is None or record.counter > best.counter:
                best = record
        if best is not None:
            self.hits += 1
        if BUS.active:
            BUS.emit("hotspot.hit" if best is not None else "hotspot.miss",
                     leaf_addr=leaf_addr, home=home)
        return best

    def speculated(self, correct: bool, now: float, leaf_addr: int) -> None:
        """Count one speculative read's outcome (§4.3)."""
        if correct:
            self.correct_speculations += 1
        else:
            self.wrong_speculations += 1
        if BUS.active:
            BUS.emit("speculative.correct" if correct else "speculative.wrong",
                     now, leaf_addr=leaf_addr)

    def _unfile(self, slot: Tuple[int, int], count: int) -> int:
        """Take *slot* out of counter *count*'s bucket; returns the
        greatest counter at or below *count* that still has a bucket."""
        bucket = self._buckets[count]
        del bucket[slot]
        if bucket:
            return count
        del self._buckets[count]
        lower, higher = self._lower.pop(count), self._higher.pop(count)
        self._higher[lower], self._lower[higher] = higher, lower
        return lower

    def _file(self, slot: Tuple[int, int], record: HotspotRecord, count: int,
              below: int) -> None:
        """File *record* at the back of counter *count*'s bucket; a new
        bucket joins the chain just above counter *below*."""
        record.counter = count
        bucket = self._buckets.get(count)
        if bucket is None:
            bucket = self._buckets[count] = {}
            higher = self._higher[below]
            self._higher[below], self._lower[count] = count, below
            self._higher[count], self._lower[higher] = higher, count
        bucket[slot] = record
