"""The family base: everything an index shares that is not its leaf protocol.

The paper's evaluation compares index *families* over one RDMA
substrate, so how a client allocates remote memory, combines reads and
writes (RDWC), dereferences an indirect value block, takes and releases
the 8-byte lock word of §4.2.1 and retries is written here once:

* :class:`FamilyIndexBase` — host-side (bulk load, off the data path):
  round-robin allocation, raw reads/writes, indirect value blocks, the
  bulk-load input check, memory accounting, the index-wide retry policy.
* :class:`FamilyClientBase` — per client: the constructor fields, the
  chunked allocator, the public operations as template methods over
  per-family ``_search/_insert/_update/_delete/_scan`` generators, the
  indirect-block helpers, whole sorted-array-node reads and writes, and
  the plain lock pairing (CN-local lock table, masked-CAS spin, unlock
  write, exception-path restore).

A family supplies its leaf view and those five generators (fewer when it
has no such operation — a ``delete`` it lacks is a typed
``WorkloadError``).  :mod:`repro.core.btree_base` extends the lock
pairing with leases, ticket queues and delegation for the tree families.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.node_layout import FULL_MASK, LOCK_BIT, SortedNodeLayout
from repro.core.nodes import SortedNodeView
from repro.errors import (
    FaultInjectedError,
    IndexError_,
    LayoutError,
    TornReadError,
    WorkloadError,
)
from repro.layout import (
    StripedSpan,
    decode_key,
    decode_u64,
    decode_value,
    encode_key,
    encode_u64,
    encode_value,
)
from repro.memory import ChunkAllocator, addr_mn
from repro.memory.region import CACHE_LINE
from repro.obs.bus import BUS
from repro.obs.spans import SpanInstrumentedOps
from repro.retry import DEFAULT_RETRY_POLICY


class FamilyIndexBase:
    """Host-side state and bulk-load helpers shared by every index."""

    def __init__(self, cluster: Cluster, config=None) -> None:
        self.cluster = cluster
        #: The family's frozen ``*Config`` (None when it has none);
        #: indirect-value families read ``config.value_size`` below.
        self.config = config
        #: Retry budget shared by every client of this index (see
        #: :class:`repro.retry.RetryPolicy`); tests and sweeps replace it
        #: on a built index before creating clients.
        self.retry_policy = DEFAULT_RETRY_POLICY
        self.loaded_items = 0
        self._host_rr = 0

    # -- host-side helpers (bulk load only; no simulated cost) ----------------

    @staticmethod
    def _checked_pairs(pairs: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """The bulk-load input as a list: sorted, unique, keys >= 1."""
        pairs = list(pairs)
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a >= b:
                raise IndexError_("bulk_load requires sorted unique keys")
        if pairs and pairs[0][0] < 1:
            raise IndexError_("keys must be >= 1 (0 marks empty entries)")
        return pairs

    def _host_alloc(self, size: int) -> int:
        mn_ids = sorted(self.cluster.mns)
        mn_id = mn_ids[self._host_rr % len(mn_ids)]
        self._host_rr += 1
        return self.cluster.mns[mn_id].allocator.alloc(size, align=CACHE_LINE)

    def _host_write(self, addr: int, data: bytes) -> None:
        self.cluster.mns[addr_mn(addr)].mem_write(addr, data)

    def _host_read(self, addr: int, length: int) -> bytes:
        return self.cluster.mns[addr_mn(addr)].mem_read(addr, length)

    def _host_alloc_blocks(self, keys: Sequence[int],
                           values: Sequence[int]) -> List[int]:
        """Allocate + fill a run of ``[key: 8][value]`` blocks (indirect
        values, KV-discrete leaves); returns their addresses.

        Block *i* gets the address the *i*-th of as many ``_host_alloc(8
        + value_size)`` calls would have handed out: round-robin over
        the MNs from ``_host_rr`` on, each MN's blocks one cache-line
        stride apart.  An MN's share of the run is therefore one
        allocation and one image — keys and values each packed once and
        laid in with a strided assignment — landed by one write.
        """
        size = 8 + self.config.value_size
        stride = -(-size // CACHE_LINE) * CACHE_LINE
        mn_ids = sorted(self.cluster.mns)
        lanes = len(mn_ids)
        addrs = [0] * len(keys)
        for lane in range(min(lanes, len(keys))):
            lane_keys = keys[lane::lanes]
            lane_values = values[lane::lanes]
            count = len(lane_keys)
            try:
                key_words = struct.pack(f">{count}Q", *lane_keys)
                value_words = struct.pack(f"<{count}Q", *lane_values)
            except struct.error as error:
                raise LayoutError(f"block field out of range: {error}") from None
            if size < 16 and max(lane_values) >> 8 * (size - 8):
                raise LayoutError(
                    f"a value does not fit in {size - 8} bytes")
            image = bytearray(stride * count)
            words = memoryview(image).cast("Q")
            words[0::stride // 8] = memoryview(key_words).cast("Q")
            words[1::stride // 8] = memoryview(value_words).cast("Q")
            words.release()
            del image[stride * (count - 1) + size:]
            mn = self.cluster.mns[mn_ids[(self._host_rr + lane) % lanes]]
            base = mn.allocator.alloc(len(image), align=CACHE_LINE)
            mn.mem_write(base, image)
            addrs[lane::lanes] = range(base, base + stride * count, stride)
        self._host_rr += len(keys)
        return addrs

    def _host_stored(self, items: Sequence[Tuple[int, int]]
                     ) -> Sequence[Tuple[int, int]]:
        """What a leaf holds of *items*: themselves, or — with indirect
        values — each key with the address of its value's fresh block."""
        if not self.config.indirect_values:
            return items
        keys = [key for key, _value in items]
        return list(zip(keys, self._host_alloc_blocks(
            keys, [value for _key, value in items])))

    def _host_read_block(self, addr: int) -> Tuple[int, int]:
        """``(key, value)`` of a block written by :meth:`_host_alloc_blocks`."""
        size = self.config.value_size
        data = self._host_read(addr, 8 + size)
        return decode_key(data), decode_value(data, 8, size=size)

    def remote_memory_bytes(self) -> int:
        """Memory-pool bytes consumed (nodes + blocks)."""
        return sum(mn.allocator.bytes_used for mn in self.cluster.mns.values())


class FamilyClientBase(SpanInstrumentedOps):
    """One client's handle on an index: plumbing every family shares.

    Every public operation is an observability *op span* around the
    family's generator; with no bus subscriber :meth:`_op` hands the
    generator back untouched, and the operations themselves are plain
    functions, so the template costs no generator frame.
    """

    def __init__(self, index: FamilyIndexBase, ctx: ClientContext) -> None:
        self.index = index
        self.ctx = ctx
        self.qp = ctx.qp
        self.engine = ctx.engine
        self.config = index.config
        self.retry = index.retry_policy
        self._allocators: Dict[int, ChunkAllocator] = {}
        self._alloc_rr = ctx.client_id  # stagger MN choice across clients

    # -- public operations (templates) ---------------------------------------

    def search(self, key: int) -> Generator:
        """Point lookup; returns the value or None."""
        combiner = self.ctx.combiner
        if combiner.enabled:
            return self._op("search", combiner.read(
                ("s", id(self.index), key), lambda: self._search(key)))
        return self._op("search", self._search(key))

    def insert(self, key: int, value: int) -> Generator:
        """Insert (or overwrite) a key."""
        if key < 1:
            raise IndexError_("keys must be >= 1")
        return self._op("insert", self._insert(key, value))

    def update(self, key: int, value: int) -> Generator:
        """Update an existing key; returns False when absent."""
        combiner = self.ctx.combiner
        if combiner.enabled:
            return self._op("update", combiner.write(
                ("u", id(self.index), key), value,
                lambda v: self._update(key, v)))
        return self._op("update", self._update(key, value))

    def delete(self, key: int) -> Generator:
        """Delete a key; returns False when absent."""
        return self._op("delete", self._delete(key))

    def _delete(self, key: int) -> Generator:
        """The hook of a family that has no delete (Outback, FlexKV)."""
        raise WorkloadError(
            f"{type(self.index).__name__} does not support delete")

    def _scan_op(self, key: int, count: int) -> Generator:
        """Up to *count* (key, value) pairs with keys >= *key*, ascending.

        Families that scan publish it as ``scan = FamilyClientBase._scan_op``
        — point-only families must not *have* a ``scan`` attribute (the
        registry's ``supports_scan`` flag is checked against the client
        surface).
        """
        return self._op("scan", self._scan(key, count))

    # -- allocation (on the data path) ---------------------------------------

    def _alloc(self, size: int) -> Generator:
        """Allocate remote memory via the chunked RPC allocator."""
        mn_ids = sorted(self.index.cluster.mns)
        mn_id = mn_ids[self._alloc_rr % len(mn_ids)]
        self._alloc_rr += 1
        allocator = self._allocators.get(mn_id)
        if allocator is None:
            allocator = ChunkAllocator(
                self.qp, mn_id,
                chunk_size=self.index.cluster.config.alloc_chunk_bytes)
            self._allocators[mn_id] = allocator
        addr = yield from allocator.alloc(size)
        return addr

    # -- indirect value blocks -----------------------------------------------

    def _read_block(self, block_addr: int, key: int) -> Generator:
        """READ a ``[key][value]`` block and verify it is *key*'s."""
        size = self.config.value_size
        data = yield from self.qp.read(block_addr, 8 + size)
        stored_key = decode_key(data)
        if stored_key != key:
            raise TornReadError(
                f"indirect block key mismatch ({stored_key} != {key})")
        return decode_value(data, 8, size=size)

    def _write_block(self, key: int, value: int) -> Generator:
        """Allocate + WRITE a fresh ``[key][value]`` block (out-of-place)."""
        size = self.config.value_size
        addr = yield from self._alloc(8 + size)
        yield from self.qp.write(
            addr, encode_key(key) + encode_value(value, size))
        return addr

    def _resolve_indirect(self, results: Sequence[Tuple[int, int]]) -> Generator:
        """Scan tail: dereference ``(key, block pointer)`` results."""
        resolved = []
        for key, block in results:
            value = yield from self._phase("indirect_read",
                                           self._read_block(block, key))
            resolved.append((key, value))
        return resolved

    # -- sorted-array nodes (internal levels, sorted leaves) ------------------

    def _read_sorted_node(self, addr: int, layout: SortedNodeLayout,
                          raw: Optional[bytes] = None) -> Generator:
        """READ the node at *addr* until it is NV-consistent (a verb an
        injected fault failed counts as torn); returns its view.  *raw*
        is an image already fetched in a batch, re-read only if torn."""
        retry = self.retry.start("node read {:#x}", self.engine,
                                 self.ctx.rng, addr)
        while retry.check():
            if raw is None:
                try:
                    raw = yield from self.qp.read(addr, layout.raw_size)
                except FaultInjectedError:
                    pass
            if raw is not None:
                view = SortedNodeView(layout, StripedSpan(raw, 0))
                if view.is_consistent():
                    return view
                raw = None
            self.qp.stats.retries += 1
            yield from retry.backoff()

    def _write_fresh_node(self, layout: SortedNodeLayout,
                          items: Sequence[Tuple[int, int]], sibling: int,
                          fence_low: int, fence_high: int,
                          level: int = 0) -> Generator:
        """Allocate a node and WRITE it holding *items*, a free lock line
        behind it (one batch); the caller publishes ``(addr, view)``."""
        addr = yield from self._alloc(layout.total_size)
        view = SortedNodeView.compose(layout, items, sibling, fence_low,
                                      fence_high, level=level)
        yield from self.qp.write_batch([
            (addr, bytes(view.span.data)),
            (addr + layout.lock_offset, encode_u64(0)),
        ])
        return addr, view

    # -- remote locks ---------------------------------------------------------

    def _lock(self, lock_addr: int, zero_rest: bool = True,
              piggyback: bool = True, repair=None) -> Generator:
        """Acquire the remote lock at *lock_addr*; returns the old word.

        Serializes same-CN attempts through the local lock table first
        (Sherman's optimization), then acquires remotely
        (:meth:`_remote_acquire`).  The CN-local shadow lock stays held
        until :meth:`_release_local`; it is released here on any failure.
        *repair* is forwarded to lease-aware acquires (see
        :class:`~repro.core.btree_base.BTreeClientBase`).

        Callers pair it as CHIME does: ``_lock``; ``try`` the locked body,
        which releases through :meth:`_unlock_writes` (batched behind its
        data write) or :meth:`_unlock_remote`; ``except BaseException``
        (re-raising ``GeneratorExit`` untouched) :meth:`_restore_unlock`
        if still held; ``finally`` :meth:`_release_local`.
        """
        local = self.ctx.cn.local_lock(lock_addr)
        if local is not None:
            yield local.acquire()
        try:
            old = yield from self._remote_acquire(lock_addr, zero_rest,
                                                  piggyback, repair)
        except BaseException:
            if local is not None:
                local.release()
            raise
        return old

    def _remote_acquire(self, lock_addr: int, zero_rest: bool,
                        piggyback: bool, repair) -> Generator:
        """The remote half of :meth:`_lock` (a plain function choosing
        the generator, so the choice costs no frame)."""
        return self._lock_spin(lock_addr, zero_rest, piggyback)

    def _lock_spin(self, lock_addr: int, zero_rest: bool,
                   piggyback: bool) -> Generator:
        """The classic lock-bit masked-CAS spin (no leases).

        The compare mask covers only the lock bit, so the returned old
        word carries the rest of the lock word for free (vacancy-bitmap
        piggybacking, §4.2.1).  ``zero_rest`` controls whether the swap
        zeroes the non-lock bits (the holder rewrites them at unlock) or
        leaves them in place.  With ``piggyback=False`` (the CXL-atomics
        model, §4.5) the CAS only toggles the lock bit and the rest of
        the word is fetched with a dedicated READ — the extra round trip
        the paper predicts for CXL deployments.

        Bounded by the index :class:`~repro.retry.RetryPolicy`;
        exhaustion raises :class:`~repro.errors.RetryExhaustedError`.
        """
        swap_mask = (FULL_MASK if zero_rest else LOCK_BIT) if piggyback \
            else LOCK_BIT
        retry = self.retry.start("lock {:#x}", self.engine, self.ctx.rng,
                                 lock_addr)
        while retry.check():
            old, swapped = yield from self.qp.masked_cas(
                lock_addr, compare=0, swap=LOCK_BIT,
                compare_mask=LOCK_BIT, swap_mask=swap_mask)
            if swapped:
                self._note_optimistic(lock_addr, retry.attempt - 1)
                if not piggyback:
                    data = yield from self.qp.read(lock_addr, 8)
                    return decode_u64(data) & ~LOCK_BIT
                return old
            self.qp.stats.retries += 1
            if BUS.active:
                BUS.emit("lock.cas_fail", self.engine.now, addr=lock_addr,
                         attempt=retry.attempt - 1)
            yield from retry.backoff()

    def _note_optimistic(self, lock_addr: int, failures: int) -> None:
        """An open-spin acquire succeeded after *failures* lost CASes
        (the adaptive sync estimator of the tree families listens)."""

    def _unlock_writes(self, lock_addr: int,
                       word: int = 0) -> List[Tuple[int, bytes]]:
        """The (addr, payload) writes that release the lock at *lock_addr*.

        Callers append these to their data write batch so the unlock
        rides the same doorbell.
        """
        return [(lock_addr, encode_u64(word))]

    def _unlock_remote(self, lock_addr: int, word: int = 0) -> Generator:
        """Release the remote lock with a standalone write (no batch)."""
        writes = self._unlock_writes(lock_addr, word)
        if len(writes) == 1:
            yield from self.qp.write(writes[0][0], writes[0][1])
        else:
            yield from self.qp.write_batch(writes)

    def _restore_unlock(self, lock_addr: int, word: int = 0) -> Generator:
        """Best-effort unlock on an exception path; never raises."""
        yield from self.qp.write(lock_addr, encode_u64(word))

    def _release_local(self, lock_addr: int) -> None:
        local = self.ctx.cn.local_lock(lock_addr)
        if local is not None:
            local.release()
