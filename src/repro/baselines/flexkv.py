"""FlexKV-style partitioned KV with dynamic CN-side vs MN-side placement.

FlexKV (PAPERS.md) observes that CN-side index replicas only pay off
while their routing metadata fits the CN memory budget; under pressure
it moves whole partitions to MN-side execution, where the weak MN CPU
walks the structure and the CN pays a single RPC per operation:

* The structure is a hash-partitioned bucket array.  Each partition
  lives on its home MN (round-robin) as ``buckets x slots`` fixed slots
  of ``[key u64 | value]``; key 0 marks an empty slot.
* **CN placement** (default): operations need the partition's routing
  directory resident in the CN cache — a miss costs one extra directory
  READ before the bucket access and is reported to the placement
  policy.  Bucket accesses are ordinary one-sided verbs (slot claims go
  through CAS), so fault injection, spans, and pipelining behave
  exactly as for the tree families.
* **MN placement**: the whole operation collapses to one RPC whose
  service time charges the MN CPU for the structure accesses the CN
  would have issued as verbs (:data:`MN_TOUCHES`); the handler runs
  host-side against the same region bytes the one-sided path touches,
  so both placements see one source of truth.
* The :class:`CachePressurePlacement` policy flips a partition CN→MN
  once directory misses accumulate, emitting ``placement.switch`` obs
  events; ``ClusterConfig.placement`` pins every partition to ``cn`` or
  ``mn`` instead (``auto`` is the policy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.family import FamilyClientBase, FamilyIndexBase
from repro.errors import SimulationError
from repro.hashing.mph import _mix
from repro.layout import (
    decode_key,
    decode_u64,
    decode_value,
    encode_key,
    encode_value,
)
from repro.memory.region import CACHE_LINE
from repro.obs.bus import BUS

__all__ = [
    "CachePressurePlacement",
    "FlexKVClient",
    "FlexKVConfig",
    "FlexKVIndex",
    "PLACEMENT_CN",
    "PLACEMENT_MN",
]

#: Where a partition's operations run.
PLACEMENT_CN = "cn"  # CN-side traversal over one-sided verbs
PLACEMENT_MN = "mn"  # MN-side offload: one RPC, the MN CPU walks the buckets

#: MN-side service time of an offloaded operation, seconds: RPC dispatch
#: plus handler set-up on the weak MN core, then one local-memory touch
#: per structure access the CN-side path issues as a verb (directory
#: READ, bucket READ, then a probe chase / the slot CAS and value WRITE
#: / the slot WRITE).
MN_DISPATCH_S = 5e-6
MN_TOUCH_S = 1e-6
MN_TOUCHES = {"search": 3, "insert": 4, "update": 3}


class CachePressurePlacement:
    """Per-partition CN-vs-MN placement driven by routing-cache misses.

    CN-side execution of a partition's operations needs that
    partition's routing metadata resident in the CN cache; every miss
    costs an extra directory READ before the operation proper.  When a
    CN-placed partition takes *threshold* misses with no hit between
    them, the policy concludes the metadata does not fit under the
    current cache budget and flips the partition to MN-side offload,
    emitting a ``placement.switch`` obs event.  It never flips back, so
    constrained-cache runs converge one way.  With no *threshold* every
    partition stays at *start* (``ClusterConfig.placement`` = ``cn`` or
    ``mn``).
    """

    def __init__(
        self, start: str = PLACEMENT_CN, threshold: Optional[int] = None
    ) -> None:
        if start not in (PLACEMENT_CN, PLACEMENT_MN):
            raise ValueError(f"unknown placement {start!r}")
        self.start = start
        self.threshold = threshold
        self.switches = 0
        self._placement: Dict[int, str] = {}
        self._misses: Dict[int, int] = {}

    def placement_for(self, partition: int) -> str:
        return self._placement.get(partition, self.start)

    def note_hit(self, partition: int) -> None:
        self._misses[partition] = 0

    def note_miss(self, partition: int, engine=None) -> None:
        threshold = self.threshold
        if threshold is None or self.placement_for(partition) != PLACEMENT_CN:
            return
        misses = self._misses[partition] = self._misses.get(partition, 0) + 1
        if misses < threshold:
            return
        self._placement[partition] = PLACEMENT_MN
        self.switches += 1
        if BUS.active:
            BUS.emit(
                "placement.switch",
                engine.now if engine is not None else 0.0,
                partition=partition,
                source=PLACEMENT_CN,
                target=PLACEMENT_MN,
            )

    def table(self) -> Dict[int, str]:
        """Partitions the policy has switched, partition -> placement."""
        return dict(sorted(self._placement.items()))


@dataclass(frozen=True)
class FlexKVConfig:
    value_size: int = 8
    #: Hash partitions (placement is decided per partition); default
    #: scales with the memory pool (4 per MN).
    partitions: Optional[int] = None
    slots_per_bucket: int = 4
    #: Bucket-array slots per bulk-loaded item (insert headroom).
    capacity_factor: float = 3.0
    #: Consecutive buckets probed before declaring the table full
    #: (linear probing at bucket granularity absorbs hash skew; probing
    #: stops early at the first bucket with a free slot).
    probe_limit: int = 8
    #: Directory misses on a CN-placed partition before the policy
    #: flips it to MN-side execution.
    switch_threshold: int = 4


class FlexKVIndex(FamilyIndexBase):
    """Host-side state: partition homes, bucket arrays, placement policy."""

    def __init__(self, cluster: Cluster,
                 config: Optional[FlexKVConfig] = None) -> None:
        super().__init__(cluster, config or FlexKVConfig())
        self.mn_ids: List[int] = sorted(cluster.mns)
        self.partitions = self.config.partitions or 4 * len(self.mn_ids)
        mode = cluster.config.placement
        if mode == "auto":
            self.placement = CachePressurePlacement(
                threshold=self.config.switch_threshold
            )
        else:
            self.placement = CachePressurePlacement(start=mode)
        #: Per-partition bucket-array base address and its directory
        #: (routing metadata) address; filled by :meth:`bulk_load`.
        self.part_base: Dict[int, int] = {}
        self.meta_addr: Dict[int, int] = {}
        self.buckets = 0

    def client(self, ctx: ClientContext) -> "FlexKVClient":
        return FlexKVClient(self, ctx)

    @property
    def slot_size(self) -> int:
        return 8 + self.config.value_size

    @property
    def bucket_bytes(self) -> int:
        return self.config.slots_per_bucket * self.slot_size

    @property
    def meta_bytes(self) -> int:
        """CN-resident directory size per partition (8 B per bucket —
        the fingerprint/lease table a CN-side replica must hold)."""
        return 8 * self.buckets

    @property
    def placement_switches(self) -> int:
        return self.placement.switches

    @staticmethod
    def _bucket_count(items_per_partition: int, config: FlexKVConfig) -> int:
        return max(
            8,
            int(items_per_partition * config.capacity_factor)
            // config.slots_per_bucket,
        )

    @classmethod
    def directory_bytes(cls, num_keys: int, num_mns: int,
                        config: Optional[FlexKVConfig] = None) -> int:
        """Total CN-resident directory footprint for a *num_keys* load.

        Computable before any index exists — experiments use it to pick
        cache budgets relative to what a fully CN-placed FlexKV needs.
        """
        config = config or FlexKVConfig()
        partitions = config.partitions or 4 * num_mns
        per_part = max(1, num_keys // partitions)
        return partitions * 8 * cls._bucket_count(per_part, config)

    # -- addressing (CN-local) ----------------------------------------------

    def partition_of(self, key: int) -> int:
        return _mix(key, 0x5157) % self.partitions

    def home_mn(self, partition: int) -> int:
        return self.mn_ids[partition % len(self.mn_ids)]

    def bucket_addr(self, partition: int, key: int, probe: int = 0) -> int:
        bucket = (_mix(key, 0x7C1F) + probe) % self.buckets
        return self.part_base[partition] + bucket * self.bucket_bytes

    # -- bulk load -----------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]]) -> None:
        pairs = self._checked_pairs(pairs)
        per_part = max(1, len(pairs) // self.partitions)
        self.buckets = self._bucket_count(per_part, self.config)
        for part in range(self.partitions):
            mn = self.cluster.mns[self.home_mn(part)]
            self.part_base[part] = mn.allocator.alloc(
                self.buckets * self.bucket_bytes, align=CACHE_LINE
            )
            self.meta_addr[part] = mn.allocator.alloc(
                self.meta_bytes, align=CACHE_LINE
            )
        for mn_id in self.mn_ids:
            self.cluster.mns[mn_id].register_rpc("flexkv", self._serve_op)
        for key, value in pairs:
            if not self._host_upsert(key, value):
                raise SimulationError(
                    "flexkv bucket full during bulk load "
                    "(raise FlexKVConfig.capacity_factor)"
                )
        self.loaded_items = len(pairs)

    # -- MN-side execution (RPC handler) -------------------------------------

    def _host_slot_of(self, key: int) -> Tuple[Optional[int], Optional[int]]:
        """``(slot_addr_of_key, first_empty_slot_addr)`` along the probe chain.

        Probing stops at the first bucket holding a free slot: with no
        deletions a key is always placed at the first free slot of its
        chain, so nothing can live beyond that bucket.
        """
        partition = self.partition_of(key)
        slot_size = self.slot_size
        for probe in range(self.config.probe_limit):
            bucket_addr = self.bucket_addr(partition, key, probe)
            empty_addr = None
            for i in range(self.config.slots_per_bucket):
                addr = bucket_addr + i * slot_size
                stored = decode_key(self._host_read(addr, 8))
                if stored == key:
                    return addr, None
                if stored == 0 and empty_addr is None:
                    empty_addr = addr
            if empty_addr is not None:
                return None, empty_addr
        return None, None

    def _host_upsert(self, key: int, value: int) -> bool:
        found, empty = self._host_slot_of(key)
        addr = found if found is not None else empty
        if addr is None:
            return False
        self._host_write(
            addr,
            encode_key(key) + encode_value(value, self.config.value_size),
        )
        return True

    def _serve_op(self, request):
        """Serve ``("flexkv", kind, key, value)`` on the home MN's CPU.

        The handler touches the same region bytes the CN-side one-sided
        path does, at a single simulation instant (the RPC's service
        completion), so the two placements never diverge.
        """
        _, kind, key, value = request
        if kind == "search":
            found, _empty = self._host_slot_of(key)
            if found is None:
                return None
            data = self._host_read(found, self.slot_size)
            return decode_value(data, 8, size=self.config.value_size)
        if kind == "insert":
            if not self._host_upsert(key, value):
                raise SimulationError(
                    "flexkv bucket full "
                    "(raise FlexKVConfig.capacity_factor)"
                )
            return True
        if kind == "update":
            found, _empty = self._host_slot_of(key)
            if found is None:
                return False
            self._host_write(
                found + 8, encode_value(value, self.config.value_size)
            )
            return True
        raise SimulationError(f"unknown flexkv op {kind!r}")

    # -- host-side inspection ------------------------------------------------

    def collect_items(self) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        slot_size = self.slot_size
        value_size = self.config.value_size
        for part in range(self.partitions):
            base = self.part_base[part]
            for bucket in range(self.buckets):
                for i in range(self.config.slots_per_bucket):
                    addr = base + bucket * self.bucket_bytes + i * slot_size
                    data = self._host_read(addr, slot_size)
                    key = decode_key(data)
                    if key:
                        out.append(
                            (key, decode_value(data, 8, size=value_size))
                        )
        out.sort()
        return out


class FlexKVClient(FamilyClientBase):
    """Per-client FlexKV operations under the partition's placement.

    The operations below replace the base templates: the placement
    dispatch decides per partition where an operation runs, and RDWC is
    not applied.
    """

    #: Bucket re-reads after a lost slot-claim CAS before giving up.
    _CLAIM_ATTEMPTS = 4

    # -- the placement decision ----------------------------------------------

    def _ensure_directory(self, partition: int) -> Generator:
        """CN placement needs the partition directory in the CN cache.

        A hit is free (pure CN-local routing); a miss costs one READ of
        the directory head to refresh the replica and is reported to
        the placement policy, which may flip the partition to MN-side.
        """
        index = self.index
        meta_addr = index.meta_addr[partition]
        cache = self.ctx.cache
        if cache.get(meta_addr) is not None:
            index.placement.note_hit(partition)
            return
        # Insert before yielding the refresh READ (MSHR-style): clients
        # of the same CN that miss while the fetch is in flight coalesce
        # onto it instead of each counting a fresh miss — otherwise a
        # cold directory looks like thrashing to the placement policy
        # no matter how roomy the cache is.
        cache.put(meta_addr, ("flexkv-dir", partition), index.meta_bytes)
        index.placement.note_miss(partition, self.engine)
        yield from self.qp.read(meta_addr, 64)

    # -- operations ----------------------------------------------------------

    def search(self, key: int) -> Generator:
        """Point lookup; returns the value or None."""
        result = yield from self._op("search", self._dispatch("search", key))
        return result

    def insert(self, key: int, value: int) -> Generator:
        """Upsert into the key's bucket (CAS slot claim CN-side)."""
        yield from self._op("insert", self._dispatch("insert", key, value))

    def update(self, key: int, value: int) -> Generator:
        """In-place value write; returns True when the key existed."""
        result = yield from self._op(
            "update", self._dispatch("update", key, value)
        )
        return result

    def _dispatch(self, kind: str, key: int, value: int = 0) -> Generator:
        index = self.index
        partition = index.partition_of(key)
        if index.placement.placement_for(partition) == PLACEMENT_MN:
            reply = yield from self.qp.rpc(
                index.home_mn(partition),
                ("flexkv", kind, key, value),
                service_time=MN_DISPATCH_S + MN_TOUCH_S * MN_TOUCHES[kind],
            )
            return reply
        yield from self._ensure_directory(partition)
        if kind == "search":
            result = yield from self._cn_search(partition, key)
        elif kind == "insert":
            result = yield from self._cn_insert(partition, key, value)
        else:
            result = yield from self._cn_update(partition, key, value)
        return result

    # -- CN-side one-sided paths ---------------------------------------------

    def _find(self, data: bytes, key: int) -> Tuple[Optional[int], Optional[int]]:
        """``(offset_of_key, first_empty_offset)`` within bucket bytes."""
        slot_size = self.index.slot_size
        empty = None
        for i in range(self.index.config.slots_per_bucket):
            offset = i * slot_size
            stored = decode_key(data, offset)
            if stored == key:
                return offset, empty
            if stored == 0 and empty is None:
                empty = offset
        return None, empty

    def _locate(self, partition: int, key: int) -> Generator:
        """Walk *key*'s bucket probe chain (one READ per bucket).

        Returns ``(found_addr, empty_addr, value)``: the key's slot
        address and current value when present, otherwise the first
        free slot address where an insert belongs (both None when the
        whole chain is full).
        """
        index = self.index
        for probe in range(index.config.probe_limit):
            bucket_addr = index.bucket_addr(partition, key, probe)
            data = yield from self.qp.read(bucket_addr, index.bucket_bytes)
            offset, empty = self._find(data, key)
            if offset is not None:
                value = decode_value(
                    data, offset + 8, size=index.config.value_size
                )
                return bucket_addr + offset, None, value
            if empty is not None:
                return None, bucket_addr + empty, None
        return None, None, None

    def _cn_search(self, partition: int, key: int) -> Generator:
        found, _empty, value = yield from self._locate(partition, key)
        return value if found is not None else None

    def _cn_update(self, partition: int, key: int, value: int) -> Generator:
        found, _empty, _current = yield from self._locate(partition, key)
        if found is None:
            return False
        yield from self.qp.write(
            found + 8, encode_value(value, self.index.config.value_size)
        )
        return True

    def _cn_insert(self, partition: int, key: int, value: int) -> Generator:
        value_size = self.index.config.value_size
        for _attempt in range(self._CLAIM_ATTEMPTS):
            found, empty, _current = yield from self._locate(partition, key)
            if found is not None:
                yield from self.qp.write(
                    found + 8, encode_value(value, value_size)
                )
                return
            if empty is None:
                raise SimulationError(
                    "flexkv bucket full "
                    "(raise FlexKVConfig.capacity_factor)"
                )
            # CAS operates on the little-endian u64 word at the slot;
            # keys are stored big-endian, so swap in the word whose LE
            # bytes are the key's BE encoding (an empty key field is
            # all-zero bytes, hence expected 0 either way).
            key_word = decode_u64(encode_key(key))
            _old, swapped = yield from self.qp.cas(empty, 0, key_word)
            if swapped:
                yield from self.qp.write(
                    empty + 8, encode_value(value, value_size)
                )
                return
            # Lost the slot race: re-walk the chain and try again.
        raise SimulationError("flexkv slot-claim CAS starved")
