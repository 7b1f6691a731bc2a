"""Outback-style hash-routed KV: one-RTT point lookups via CN-side MPH.

Outback (PAPERS.md) replaces CN-side structure traversal with a compact
perfect-hash table kept on the compute side: every bulk-loaded key maps
to a distinct slot of a value array striped across the memory nodes
(``mph.num_slots`` slots: the keys plus the spare slots the hash is
built with), so a point lookup computes its target address locally (the
registry's ``hash`` placement) and issues exactly one READ.  Keys
outside the MPH domain — inserted after the bulk load — live in
MN-resident overflow buckets: new-key inserts go through an RPC to the
bucket's home MN (the weak CPU places the entry), and readers fall back
to a one-sided bucket READ after a failed slot verify (and on to the
next bucket while the one read is full).  There is no
range structure at all, so scans are unsupported; that is the cost of
the one-RTT economy.

Slot layout: ``[key u64 | value]``; key 0 marks an empty overflow slot
(bulk-load keys are required to be >= 1, as in SMART).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.family import FamilyClientBase, FamilyIndexBase
from repro.errors import SimulationError
from repro.hashing.hopscotch import default_hash
from repro.hashing.mph import MinimalPerfectHash
from repro.layout import decode_key, decode_value, encode_key, encode_value
from repro.memory.region import CACHE_LINE

__all__ = ["OutbackClient", "OutbackConfig", "OutbackIndex"]


#: Salt for the MPH construction (all CNs build the same table).
MPH_SEED = 17
#: Slots per MN-resident overflow bucket.
OVERFLOW_SLOTS = 4
#: Overflow capacity as a fraction of the bulk-loaded key count.
OVERFLOW_HEADROOM = 0.5


@dataclass(frozen=True)
class OutbackConfig:
    value_size: int = 8


class OutbackIndex(FamilyIndexBase):
    """Host-side state: the MPH routing table and the slot-array layout."""

    def __init__(self, cluster: Cluster,
                 config: Optional[OutbackConfig] = None) -> None:
        super().__init__(cluster, config or OutbackConfig())
        self.mph: Optional[MinimalPerfectHash] = None
        self.mn_ids: List[int] = sorted(cluster.mns)
        #: Per-MN base address of this MN's stripe of the slot array.
        self.slot_base: Dict[int, int] = {}
        #: Per-MN overflow bucket array base and bucket count.
        self.overflow_base: Dict[int, int] = {}
        self.overflow_buckets = 0

    def client(self, ctx: ClientContext) -> "OutbackClient":
        return OutbackClient(self, ctx)

    @property
    def slot_size(self) -> int:
        return 8 + self.config.value_size

    @property
    def bucket_bytes(self) -> int:
        return OVERFLOW_SLOTS * self.slot_size

    @property
    def routing_bytes(self) -> int:
        """CN-resident routing metadata (the one-RTT enabler)."""
        return self.mph.routing_bytes if self.mph is not None else 0

    # -- addressing (CN-local: this is the hash placement) -------------------

    def slot_addr(self, slot: int) -> int:
        """Slot *slot* of the MPH value array, striped across MNs."""
        num_mns = len(self.mn_ids)
        mn_id = self.mn_ids[slot % num_mns]
        return self.slot_base[mn_id] + (slot // num_mns) * self.slot_size

    def overflow_home(self, key: int) -> int:
        return self.mn_ids[default_hash(key, len(self.mn_ids))]

    def overflow_addr(self, key: int, probe: int = 0) -> Tuple[int, int]:
        """``(mn_id, bucket_addr)`` of *key*'s overflow bucket, or with
        *probe* the one that many after it: a full bucket spills into
        the next (linear probing; with no deletes a key lives in the
        first bucket of its sequence that was not full)."""
        mn_id = self.overflow_home(key)
        first = default_hash(key * 31 + 7, self.overflow_buckets)
        bucket = (first + probe) % self.overflow_buckets
        return mn_id, self.overflow_base[mn_id] + bucket * self.bucket_bytes

    def bucket_keys(self, bucket: bytes) -> List[int]:
        """The key in each slot of an overflow *bucket* image (0: empty)."""
        step = self.slot_size
        return [decode_key(bucket, at) for at in range(0, len(bucket), step)]

    # -- bulk load -----------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]]) -> None:
        pairs = self._checked_pairs(pairs)
        self.mph = MinimalPerfectHash(pairs.key_column, seed=MPH_SEED)
        num_mns = len(self.mn_ids)
        per_mn = (self.mph.num_slots + num_mns - 1) // num_mns
        headroom = int(len(pairs) * OVERFLOW_HEADROOM)
        self.overflow_buckets = max(16, headroom // max(1, OVERFLOW_SLOTS * num_mns))
        for mn_id in self.mn_ids:
            mn = self.cluster.mns[mn_id]
            self.slot_base[mn_id] = mn.allocator.alloc(
                max(1, per_mn) * self.slot_size, align=CACHE_LINE
            )
            self.overflow_base[mn_id] = mn.allocator.alloc(
                self.overflow_buckets * self.bucket_bytes, align=CACHE_LINE
            )
            mn.register_rpc("outback_insert", self._serve_overflow_insert)
        value_size = self.config.value_size
        for slot_index, (key, value) in (
            (self.mph.slot_of(key), (key, value)) for key, value in pairs
        ):
            addr = self.slot_addr(slot_index)
            self._host_write(
                addr, encode_key(key) + encode_value(value, value_size)
            )
        self.loaded_items = len(pairs)

    # -- MN-side overflow insert (RPC handler) -------------------------------

    def _serve_overflow_insert(self, request) -> bool:
        """Place ``("outback_insert", key, value)`` into its bucket.

        Runs host-side on the bucket's home MN while the RPC verb
        charges the weak CPU; upsert semantics (re-inserting an existing
        overflow key overwrites its value in place).
        """
        _, key, value = request
        value_size = self.config.value_size
        for probe in range(self.overflow_buckets):
            _mn_id, bucket_addr = self.overflow_addr(key, probe)
            bucket = self._host_read(bucket_addr, self.bucket_bytes)
            keys = self.bucket_keys(bucket)
            if key in keys or 0 in keys:
                at = keys.index(key if key in keys else 0) * self.slot_size
                entry = encode_key(key) + encode_value(value, value_size)
                self._host_write(bucket_addr + at, entry)
                return True
        raise SimulationError("outback overflow buckets all full (raise OVERFLOW_HEADROOM)")

    # -- host-side inspection ------------------------------------------------

    def collect_items(self) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        if self.mph is None:
            return out
        value_size = self.config.value_size
        for slot in range(len(self.mph)):
            data = self._host_read(self.slot_addr(slot), self.slot_size)
            key = decode_key(data)
            if key:
                out.append((key, decode_value(data, 8, size=value_size)))
        for mn_id in self.mn_ids:
            base = self.overflow_base[mn_id]
            for bucket in range(self.overflow_buckets):
                for i in range(OVERFLOW_SLOTS):
                    addr = base + bucket * self.bucket_bytes \
                        + i * self.slot_size
                    data = self._host_read(addr, self.slot_size)
                    key = decode_key(data)
                    if key:
                        out.append(
                            (key, decode_value(data, 8, size=value_size))
                        )
        out.sort()
        return out


class OutbackClient(FamilyClientBase):
    """Per-client Outback operations (hash placement: MPH, then one verb)."""

    #: RDWC is not applied to the one-RTT paths.
    rdwc = False

    # -- point lookups (the one-RTT fast path) -------------------------------

    def _search(self, key: int) -> Generator:
        index = self.index
        slot_data = yield from self.qp.read(
            index.slot_addr(index.mph.slot_of(key)), index.slot_size
        )
        if decode_key(slot_data) == key:
            return decode_value(slot_data, 8, size=index.config.value_size)
        found = yield from self._overflow_probe(key)
        return found[1] if found is not None else None

    def _overflow_probe(self, key: int) -> Generator:
        """Find *key* in its overflow buckets, one READ each, reading on
        while a bucket is full without it; ``(slot_addr, value)`` or None."""
        index = self.index
        for probe in range(index.overflow_buckets):
            _mn_id, bucket_addr = index.overflow_addr(key, probe)
            bucket = yield from self.qp.read(bucket_addr, index.bucket_bytes)
            keys = index.bucket_keys(bucket)
            if key in keys:
                offset = keys.index(key) * index.slot_size
                value = decode_value(
                    bucket, offset + 8, size=index.config.value_size
                )
                return bucket_addr + offset, value
            if 0 in keys:
                return None
        return None

    # -- writes --------------------------------------------------------------

    def _insert(self, key: int, value: int) -> Generator:
        """Upsert: in-place for MPH-domain keys, RPC for new keys."""
        index = self.index
        slot_addr = index.slot_addr(index.mph.slot_of(key))
        slot_data = yield from self.qp.read(slot_addr, index.slot_size)
        if decode_key(slot_data) == key:
            yield from self.qp.write(slot_addr, self._encode(key, value))
            return True
        # Not an MPH-domain key: the home MN places it in its overflow
        # bucket (cross-client visible through one-sided bucket reads).
        yield from self.qp.rpc(
            index.overflow_home(key), ("outback_insert", key, value)
        )
        return True

    def _update(self, key: int, value: int) -> Generator:
        """Read-verify-write; returns True when the key existed."""
        index = self.index
        slot_addr = index.slot_addr(index.mph.slot_of(key))
        slot_data = yield from self.qp.read(slot_addr, index.slot_size)
        if decode_key(slot_data) == key:
            yield from self.qp.write(slot_addr, self._encode(key, value))
            return True
        found = yield from self._overflow_probe(key)
        if found is None:
            return False
        yield from self.qp.write(found[0], self._encode(key, value))
        return True

    def _encode(self, key: int, value: int) -> bytes:
        return encode_key(key) + encode_value(
            value, self.index.config.value_size
        )
