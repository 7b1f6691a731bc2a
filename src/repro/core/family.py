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
  per-family ``_search/_insert/_update/_delete`` generators (each run
  again whole when a verb it issued is lost), the scan around a
  routing's ``_scan_once``, the indirect-block helpers, whole
  sorted-array-node reads and writes, and the one lock path every family
  with a lock word takes, in every sync mode: the CN-local lock table
  and delegation, the ticket queue of :mod:`repro.core.adaptive`,
  leases, the lock-bit spin, and the one locked section
  (:meth:`FamilyClientBase._locked`) whose releasing batch gives the
  lock up only once it has landed.

A family supplies its leaf view and those four generators (fewer when it
has no such operation — a ``delete`` it lacks is a typed
``WorkloadError``), and, if it scans, ``_scan_once``.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import islice
from operator import lt
from typing import (Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.adaptive import (
    HANDOFF_CHAIN_LIMIT,
    DelegationEntry,
    HandoffToken,
)
from repro.core.node_layout import (
    FULL_MASK,
    LEASE_EPOCH_MASK,
    LOCK_BIT,
    LOCK_LEASE_OFFSET,
    LOCK_QUEUE_SPAN,
    LOCK_SERVING_OFFSET,
    LOCK_TICKET_OFFSET,
    SortedNodeLayout,
    lease_expiry_us,
    pack_lease,
    pack_lock_word,
    sim_us,
    unpack_lease,
    unpack_lock_word,
)
from repro.core.nodes import SortedNodeView
from repro.errors import (
    FaultInjectedError,
    IndexError_,
    LayoutError,
    LockLeaseExpiredError,
    QueueWaitTimeoutError,
    RetryExhaustedError,
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
from repro.pairs import Pairs
from repro.retry import DEFAULT_RETRY_POLICY

#: Jitter fraction for queued-waiter poll backoff (drawn from the
#: client's seeded rng, so runs stay reproducible): without it,
#: equal-distance waiters on different CNs poll in lockstep convoys.
QUEUE_POLL_JITTER = 0.25

#: Estimated lock tenure (lease CAS + payload write + unlock doorbell,
#: ~3 verbs) used to scale queue-poll sleeps with distance-from-head.
QUEUE_POLL_TENURE = 2e-6

#: Cap on the tenure multiple, bounding the worst-case poll interval
#: (and thus how stale a deep waiter's view of ``serving`` can get).
QUEUE_POLL_HORIZON = 32


class LockGuard:
    """A held remote lock and the metadata its lock word carried.

    ``held`` drops only once a releasing batch has landed
    (:meth:`FamilyClientBase._release`), so an exception with it still
    set makes :meth:`FamilyClientBase._locked` restore the lock, and
    never after a release — a double unlock would overwrite the
    piggybacked vacancy/argmax metadata the real release wrote.
    """

    __slots__ = ("lock_addr", "argmax", "vacancy", "held")

    def __init__(self, lock_addr: int, old_word: int) -> None:
        self.lock_addr = lock_addr
        _locked, self.argmax, self.vacancy = unpack_lock_word(old_word)
        self.held = True

    def release_word(self, argmax: Optional[int] = None,
                     vacancy: Optional[int] = None) -> int:
        """The unlocked word: the metadata as locked, or as rewritten."""
        return pack_lock_word(
            False,
            self.argmax if argmax is None else argmax,
            self.vacancy if vacancy is None else vacancy)


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
    def _checked_pairs(pairs: Iterable[Tuple[int, int]]) -> Pairs:
        """The bulk-load input as :class:`~repro.pairs.Pairs`: sorted, unique, keys >= 1."""
        pairs = Pairs.of(pairs)
        keys = pairs.key_column
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise IndexError_("bulk_load requires sorted unique keys")
        if keys and keys[0] < 1:
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

    def _host_alloc_run(self, size: int, count: int
                        ) -> Tuple[List[int], List[Tuple[object, int, slice]]]:
        """Allocate a run of *count* records of *size* bytes where as
        many ``_host_alloc(size)`` calls would: round-robin over the MNs
        from ``_host_rr`` on, each MN's records one cache-line stride
        apart.  Returns the records' addresses and, per MN, ``(memory
        node, base, share)``: its share of the run (a slice of the
        records) is one allocation, landed by one image and one write.
        """
        stride = -(-size // CACHE_LINE) * CACHE_LINE
        mn_ids = sorted(self.cluster.mns)
        lanes = len(mn_ids)
        addrs = [0] * count
        runs = []
        for lane in range(min(lanes, count)):
            share = slice(lane, count, lanes)
            held = len(range(lane, count, lanes))
            mn = self.cluster.mns[mn_ids[(self._host_rr + lane) % lanes]]
            base = mn.allocator.alloc(stride * (held - 1) + size,
                                      align=CACHE_LINE)
            addrs[share] = range(base, base + stride * held, stride)
            runs.append((mn, base, share))
        self._host_rr += count
        return addrs, runs

    def _host_alloc_blocks(self, keys: Sequence[int],
                           values: Sequence[int]) -> List[int]:
        """Allocate + fill a run of ``[key: 8][value]`` blocks (indirect
        values, KV-discrete leaves); returns their addresses.

        The blocks land as a :meth:`_host_alloc_run`: an MN's share is
        one image — keys and values each packed once and laid in with a
        strided assignment — and one write.
        """
        size = 8 + self.config.value_size
        stride = -(-size // CACHE_LINE) * CACHE_LINE
        addrs, runs = self._host_alloc_run(size, len(keys))
        for mn, base, share in runs:
            lane_values = values[share]
            count = len(lane_values)
            try:
                key_words = struct.pack(f">{count}Q", *keys[share])
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
            mn.mem_write(base, image)
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

    # -- what a client may claim (the invariant audit's view) ------------------

    def lock_lines(self) -> Iterable[Tuple[str, int]]:
        """``(node, address)`` of every lock line a client may take."""
        return ()

    def sealed_slots(self) -> Iterable[str]:
        """Every slot a structural change has sealed (SMART's)."""
        return ()


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
        cluster = index.cluster
        #: The lock line (see :meth:`_lock`): the cluster's sync state,
        #: this client's lease id, and the leases (lock_addr -> (epoch,
        #: expiry_us)) and queue tickets it holds.
        self._sync = cluster.sync_state
        self._leases_on = cluster.config.lock_leases
        self._lease_duration = cluster.config.lease_duration
        self._lease_owner = ctx.lease_owner
        self._held_leases: Dict[int, Tuple[int, int]] = {}
        self._held_tickets: Dict[int, int] = {}

    # -- public operations (templates) ---------------------------------------

    #: Read delegation and write combining (RDWC) apply to ``search`` and
    #: ``update``; the one-verb point paths of Outback and FlexKV skip it.
    rdwc = True

    def search(self, key: int) -> Generator:
        """Point lookup; returns the value or None."""
        combiner = self.ctx.combiner
        if combiner.enabled and self.rdwc:
            return self._op("search", combiner.read(
                ("s", id(self.index), key),
                lambda: self._landed(self._search, key)), key)
        return self._op("search", self._landed(self._search, key), key)

    def insert(self, key: int, value: int) -> Generator:
        """Insert (or overwrite) a key."""
        if key < 1:
            raise IndexError_("keys must be >= 1")
        return self._op("insert", self._landed(self._insert, key, value), key, value)

    def update(self, key: int, value: int) -> Generator:
        """Update an existing key; returns False when absent."""
        combiner = self.ctx.combiner
        if combiner.enabled and self.rdwc:
            return self._op("update", combiner.write(
                ("u", id(self.index), key), value,
                lambda v: self._landed(self._update, key, v)), key, value)
        return self._op("update", self._landed(self._update, key, value), key, value)

    def delete(self, key: int) -> Generator:
        """Delete a key; returns False when absent."""
        return self._op("delete", self._landed(self._delete, key), key)

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
        return self._op("scan", self._landed(self._scan, key, count), key, count)

    def _landed(self, op, *args) -> Generator:
        """``op(*args)``, an op's generator, run again from the start
        each time a verb it issued is lost (:meth:`_until_landed`): a
        lost verb had no effect, and an op's last remote effect is its
        commit verb.  With no fault plan installed the generator is
        handed back untouched, as :meth:`_op` does with no subscriber."""
        if self.qp.injector is None:
            return op(*args)
        return self._until_landed(op.__name__, op, *args)

    def _drop_stale(self, trusted: List[int], stale: bool) -> bool:
        """The one stale-route rule (DESIGN §4 "Stale routes"): the first
        time a read contradicts a route (*stale*), the CN-cache entries
        it *trusted* are dropped and forgotten (a later copy may be
        fresh).  Returns whether it dropped."""
        if not (stale and trusted):
            return False
        for addr in trusted:
            self.ctx.cache.invalidate(addr)
        trusted.clear()
        return True

    # -- allocation (on the data path) ---------------------------------------

    def _alloc(self, size: int) -> Generator:
        """Allocate remote memory via the chunked RPC allocator."""
        mn_ids = sorted(self.index.cluster.mns)
        mn_id = mn_ids[self._alloc_rr % len(mn_ids)]
        self._alloc_rr += 1
        allocator = self._allocators.get(mn_id)
        if allocator is None:
            allocator = ChunkAllocator(self.qp, mn_id)
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

    def _stored(self, key: int, value: int) -> Generator:
        """What a leaf entry holds for *value*: the value, or the address
        of the fresh block it is written to (variable-length keys: a
        chain head)."""
        if self.config.indirect_values:
            value = yield from self._write_block(key, value)
        return value

    def _resolve_indirect(self, results: Sequence[Tuple[int, int]]) -> Generator:
        """Scan tail: dereference ``(key, block pointer)`` results."""
        resolved = []
        for key, block in results:
            value = yield from self._phase("indirect_read",
                                           self._read_block(block, key))
            resolved.append((key, value))
        return resolved

    # -- range scans (every scanning family: tree, leaf group, radix tree) ----

    def _scan(self, key: int, count: int) -> Generator:
        """The pairs >= *key* ``_scan_once(key, count)`` read, sorted, cut
        to *count*, values resolved."""
        results = yield from self._scan_once(key, count)
        results.sort()
        del results[count:]
        if getattr(self.config, "indirect_values", False):
            results = yield from self._resolve_indirect(results)
        return results

    def _more_leaves(self, expected: float, count: int,
                     candidates: Iterable[int]) -> List[int]:
        """The one batch rule: leaves of *candidates* while the pairs
        expected — *expected*, then the running mean of keys per leaf
        ``_leaf_keys`` for each leaf taken — fall short of *count*."""
        taken = []
        for addr in candidates:
            if expected >= count:
                break
            taken.append(addr)
            expected += self._leaf_keys
        return taken

    def _note_leaf_keys(self, keys: int) -> None:
        """Fold a leaf read whole into :meth:`_more_leaves`' mean."""
        self._leaf_keys += (keys - self._leaf_keys) / 16

    def _read_scan_leaves(self, addrs: List[int], key: int,
                          plans: Optional[Sequence] = None) -> Generator:
        """The leaves of *addrs* in one doorbell batch: a whole-leaf READ
        each, or the READs of its plan in *plans* (``_candidate_read``;
        None for the whole leaf), each decoded by the leaf format's
        ``_scan_leaf(raw, key, plan) -> (pairs >= key, read)`` and re-read
        alone while that finds it torn."""
        size = self.layout.raw_size
        plans = plans or [None] * len(addrs)
        parts = [plan.rounds[0] if plan else ((0, size),) for plan in plans]
        payloads = iter((yield from self.qp.read_batch(
            [(addr + off, length) for addr, runs in zip(addrs, parts)
             for off, length in runs])))
        leaves = []
        for addr, plan, runs in zip(addrs, plans, parts):
            raw = next(payloads) if len(runs) == 1 else b"".join(
                next(payloads) for _run in runs)
            retry = None
            while True:
                try:
                    leaves.append(self._scan_leaf(raw, key, plan))
                    break
                except TornReadError:
                    retry = retry or self.retry.start(
                        "scan leaf {:#x}", self.engine, self.ctx.rng, addr)
                    retry.check()
                    self.qp.stats.retries += 1
                    yield from retry.backoff()
                    raw = yield from (self._fetch_shape(addr, plan) if plan
                                      else self.qp.read(addr, size))
        return leaves

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


    # -- the lock line ----------------------------------------------------------

    def _lock(self, lock_addr: int, zero_rest: bool = True,
              piggyback: bool = True, repair=None) -> Generator:
        """Acquire the remote lock at *lock_addr*; returns the old word.

        Same-CN attempts serialize through the CN-local lock table first
        (Sherman's optimization).  While blocked there a waiter is
        counted in the CN's delegation entry for the address, so a
        releasing holder knows to park a :class:`HandoffToken` instead
        of advancing the remote queue; the woken waiter claims the token
        even if the leaf flipped back to optimistic meanwhile — an
        orphaned token would strand the remote serving word.  Then the
        remote half: a token, or a leaf the cluster's
        :class:`~repro.core.adaptive.SyncState` holds pessimistic, takes
        the ticket queue (:meth:`_lock_queued`); otherwise lease-based
        locks (``ClusterConfig.lock_leases``) take the lease word
        (:meth:`_lock_leased`) and plain ones spin on the lock bit
        (:meth:`_lock_spin`).  *repair* is a nullary generator callback
        run after stealing an orphaned lease, before the caller proceeds
        (leaf callers pass their repair routine).  The CN-local lock
        stays held until :meth:`_locked`, the only caller, releases it;
        it is released here on any failure.
        """
        sync = self._sync
        cn = self.ctx.cn
        local = cn.local_lock(lock_addr)
        entry: Optional[DelegationEntry] = None
        if local is not None:
            entry = cn.delegation.get(lock_addr)
            if entry is None and sync.is_pessimistic(lock_addr):
                entry = cn.delegation[lock_addr] = DelegationEntry()
            if entry is not None:
                entry.waiting += 1
                try:
                    yield local.acquire()
                finally:
                    entry.waiting -= 1
            else:
                yield local.acquire()
                # The entry may have been created while we slept on the
                # local lock (the leaf flipped pessimistic meanwhile);
                # re-fetch, or a token parked for us is never claimed
                # and the remote serving word strands.
                entry = cn.delegation.get(lock_addr)
        try:
            token = entry.take_token() if entry is not None else None
            if token is not None or sync.is_pessimistic(lock_addr):
                old = yield from self._lock_queued(
                    lock_addr, zero_rest, piggyback, repair, token,
                    entry.waiting if entry is not None else 0)
            elif self._leases_on:
                old = yield from self._lock_leased(lock_addr, repair)
            else:
                old = yield from self._lock_spin(lock_addr, zero_rest,
                                                 piggyback)
        except BaseException:  # a steal's repair failed: its lease expires
            self._held_leases.pop(lock_addr, None)
            self._held_tickets.pop(lock_addr, None)
            if local is not None:
                cn.release_local(lock_addr, local)
            raise
        return old

    def _cas_lock_bit(self, lock_addr: int, zero_rest: bool,
                      piggyback: bool, won: Callable[[], object]) -> Generator:
        """One masked CAS setting the lock bit; returns the old word, or
        None when the bit was already set.

        The compare mask covers only the lock bit, so the returned old
        word carries the rest of the lock word for free (vacancy-bitmap
        piggybacking, §4.2.1).  ``zero_rest`` controls whether the swap
        zeroes the non-lock bits (the holder rewrites them at unlock) or
        leaves them in place.  With ``piggyback=False`` (the CXL-atomics
        model, §4.5) the CAS only toggles the lock bit and the rest of
        the word is fetched with a dedicated READ — the extra round trip
        the paper predicts for CXL deployments.  *won* runs as soon as
        the CAS wins, before that READ (the estimator reads sim time);
        the lock is held by then, so a lost READ is re-issued.
        """
        old, swapped = yield from self.qp.masked_cas(
            lock_addr, compare=0, swap=LOCK_BIT, compare_mask=LOCK_BIT,
            swap_mask=FULL_MASK if zero_rest and piggyback else LOCK_BIT)
        if not swapped:
            return None
        won()
        if not piggyback:
            data = yield from self._until_landed("lock word read",
                                                 self.qp.read, lock_addr, 8)
            return decode_u64(data) & ~LOCK_BIT
        return old

    def _take_lease(self, lock_addr: int, word: int, lease: int,
                    won: Callable[[], object], steal: bool = False,
                    repair=None) -> Generator:
        """Stamp this client's lease over *lease* — a full-word CAS that
        bumps the epoch — and run *won*; returns *word* without the lock
        bit, or None when the CAS lost.

        With *steal*, *lease* is an orphaned one (owner != 0, expired):
        the steal is reported and *repair* then reconciles the node, the
        word it returns replacing *word*.
        """
        owner, epoch, expired_us = unpack_lease(lease)
        expiry_us = lease_expiry_us(self.engine.now, self._lease_duration)
        _old, swapped = yield from self.qp.cas(
            lock_addr + LOCK_LEASE_OFFSET, lease,
            pack_lease(self._lease_owner, epoch + 1, expiry_us))
        if not swapped:
            return None
        self._held_leases[lock_addr] = ((epoch + 1) & LEASE_EPOCH_MASK,
                                        expiry_us)
        won()
        if steal:
            if BUS.active:
                BUS.emit("lock.lease_expired", self.engine.now,
                         addr=lock_addr, owner=owner, epoch=epoch,
                         expired_us=expired_us)
                BUS.emit("lock.steal", self.engine.now, addr=lock_addr,
                         victim=owner, thief=self._lease_owner,
                         epoch=epoch + 1)
            if repair is not None:
                repaired = yield from repair()
                if repaired is not None:
                    word = repaired
        return word & ~LOCK_BIT

    def _lock_spin(self, lock_addr: int, zero_rest: bool,
                   piggyback: bool) -> Generator:
        """The classic lock-bit spin (no leases): :meth:`_cas_lock_bit`
        until it wins, each win fed to the adaptive estimate.

        Bounded by the index :class:`~repro.retry.RetryPolicy`;
        exhaustion raises :class:`~repro.errors.RetryExhaustedError`.
        """
        retry = self.retry.start("lock {:#x}", self.engine, self.ctx.rng,
                                 lock_addr)
        while retry.check():
            old = yield from self._cas_lock_bit(
                lock_addr, zero_rest, piggyback,
                lambda: self._sync.note_optimistic(
                    lock_addr, retry.attempt - 1, self.engine.now))
            if old is not None:
                return old
            self.qp.stats.retries += 1
            if BUS.active:
                BUS.emit("lock.cas_fail", self.engine.now, addr=lock_addr,
                         attempt=retry.attempt - 1)
            yield from retry.backoff()

    def _lock_leased(self, lock_addr: int, repair=None) -> Generator:
        """Lease-based acquire: READ the lock line, CAS the lease word.

        The full-word CAS on the lease makes the piggybacked metadata
        read race-free without touching the lock word: the epoch bumps
        on every acquisition and survives unlock, so any intervening
        acquire/release changes the lease word and fails our CAS — and
        the metadata word only changes under the lease.

        An orphaned lease (owner != 0, expiry in the past — its holder's
        CN crashed mid-operation) is stolen by the same CAS; *repair*
        then reconciles the node before the caller proceeds.
        """
        retry = self.retry.start("lease {:#x}", self.engine, self.ctx.rng,
                                 lock_addr)
        while retry.check():
            line = yield from self.qp.read(lock_addr, LOCK_LEASE_OFFSET + 8)
            lease = decode_u64(line, LOCK_LEASE_OFFSET)
            owner, _epoch, expiry_us = unpack_lease(lease)
            if owner and sim_us(self.engine.now) < expiry_us:
                self.qp.stats.retries += 1
                if BUS.active:
                    BUS.emit("lock.cas_fail", self.engine.now, addr=lock_addr,
                             attempt=retry.attempt - 1)
                yield from retry.backoff()
                continue
            old = yield from self._take_lease(
                lock_addr, decode_u64(line, 0), lease,
                lambda: self._sync.note_optimistic(
                    lock_addr, retry.attempt - 1, self.engine.now),
                steal=owner != 0, repair=repair)
            if old is not None:
                return old
            self.qp.stats.retries += 1
            yield from retry.backoff()

    def _lock_queued(self, lock_addr: int, zero_rest: bool, piggyback: bool,
                     repair, token: Optional[HandoffToken],
                     local_waiting: int) -> Generator:
        """CIDER-style pessimistic acquire: FIFO ticket queue on the lock line.

        One FAA on the next-ticket word claims a queue position; the
        waiter then polls the 48-byte lock line (metadata word, lease,
        dispenser, now-serving in one READ) with distance-proportional
        jittered backoff until the serving word reaches its ticket.  The
        winner takes ownership by stamping the lease word
        (:meth:`_take_lease`, as :meth:`_lock_leased` does, so steal /
        repair / overrun recovery compose unchanged), or, with leases
        off, by :meth:`_cas_lock_bit` (which keeps mutual exclusion
        against mixed-mode optimistic writers in adaptive runs).

        Recovery: a waiter that watches the serving word stall a full
        lease duration with no live lease CASes it forward, dropping the
        dead waiter's ticket (``queue.drop``); a winner whose lease CAS
        finds an expired foreign lease steals it and runs *repair* — the
        crashed-holder path.  A waiter whose own ticket was dropped
        (serving passed it while it was parked) re-enqueues with a fresh
        FAA.  The whole wait is bounded by the retry policy; exhaustion
        raises :class:`~repro.errors.QueueWaitTimeoutError` and abandons
        the ticket for survivors to drop.  A verb the fabric loses here
        (FAA, poll READ, turn CAS, drop CAS) had no effect and is issued
        again in place: a claimed ticket is never abandoned for a loss.

        A delegation *token* short-circuits all of the above: the ticket
        is adopted from the releasing same-CN holder and revalidated
        with a single CAS; on a race (mixed-mode interference) or a lost
        CAS the waiter keeps the inherited ticket and falls into the
        poll loop.
        """
        sync = self._sync
        engine = self.engine
        qp = self.qp
        cn_id = self.ctx.cn.cn_id
        owner_name = self.ctx.name
        ticket_addr = lock_addr + LOCK_TICKET_OFFSET
        serving_addr = lock_addr + LOCK_SERVING_OFFSET

        my_ticket: Optional[int] = None
        if token is not None:
            my_ticket = token.ticket
            sync.register(cn_id, owner_name, lock_addr, my_ticket)
            sync.note_queue(lock_addr, local_waiting + 1, engine.now)
            won = partial(self._take_ticket, lock_addr, my_ticket, True)
            try:
                if self._leases_on:
                    old = yield from self._take_lease(lock_addr, token.word,
                                                      token.lease, won)
                else:
                    old = yield from self._cas_lock_bit(lock_addr, zero_rest,
                                                        piggyback, won)
            except FaultInjectedError:
                old = None
            if old is not None:
                return old
            # The handoff raced (lease stolen / lock bit held by a
            # mixed-mode writer) or was lost: keep the ticket and poll.

        retry = self.retry.start("queue {:#x}", engine, self.ctx.rng,
                                 lock_addr)
        if my_ticket is None:
            # Register intent before the FAA (ticket -1 = in flight): a
            # CN crash parking this lane at the FAA itself must still
            # show up in the stranded-ticket registry.
            sync.register(cn_id, owner_name, lock_addr, -1)
            my_ticket = yield from self._until_landed("ticket FAA", qp.faa,
                                                      ticket_addr, 1)
            sync.register(cn_id, owner_name, lock_addr, my_ticket)
        enqueue_seen = token is not None
        last_serving: Optional[int] = None
        stall_since = engine.now
        while True:
            try:
                retry.check()
            except RetryExhaustedError as exc:
                sync.abandon(cn_id, owner_name, lock_addr)
                if BUS.active:
                    BUS.emit("queue.wait_timeout", engine.now,
                             addr=lock_addr, ticket=my_ticket,
                             attempts=retry.attempt)
                raise QueueWaitTimeoutError(
                    f"queue {lock_addr:#x}: ticket {my_ticket} never "
                    f"served ({exc})") from exc
            try:
                line = yield from qp.read(lock_addr, LOCK_QUEUE_SPAN)
            except FaultInjectedError:
                continue
            lease = decode_u64(line, LOCK_LEASE_OFFSET)
            serving = decode_u64(line, LOCK_SERVING_OFFSET)
            if serving != last_serving:
                last_serving = serving
                stall_since = engine.now
            if not enqueue_seen:
                enqueue_seen = True
                depth = max(my_ticket - serving, 0) + local_waiting
                sync.note_queue(lock_addr, depth, engine.now)
                if BUS.active:
                    BUS.emit("queue.enqueue", engine.now, addr=lock_addr,
                             ticket=my_ticket, depth=depth)
            if serving > my_ticket:
                # Survivors dropped our ticket as dead while we were
                # backing off; rejoin the queue with a fresh FAA.
                my_ticket = yield from self._until_landed(
                    "ticket FAA", qp.faa, ticket_addr, 1)
                sync.register(cn_id, owner_name, lock_addr, my_ticket)
                continue
            if serving == my_ticket:
                won = partial(self._take_ticket, lock_addr, my_ticket, False)
                owner, _epoch, expiry_us = unpack_lease(lease)
                try:
                    if not self._leases_on:
                        old = yield from self._cas_lock_bit(
                            lock_addr, zero_rest, piggyback, won)
                    elif not owner or sim_us(engine.now) >= expiry_us:
                        old = yield from self._take_lease(
                            lock_addr, decode_u64(line, 0), lease, won,
                            steal=owner != 0, repair=repair)
                    else:
                        old = None
                except FaultInjectedError:
                    if lock_addr in self._held_tickets:
                        raise  # lost after the turn was taken (repair)
                    continue  # the CAS itself was lost: nothing changed
                if old is not None:
                    return old
                # A mixed-mode optimistic holder (live lease or lock bit,
                # in adaptive runs) or a lost race: wait.
                qp.stats.retries += 1
                if BUS.active and not self._leases_on:
                    BUS.emit("lock.cas_fail", engine.now, addr=lock_addr,
                             attempt=retry.attempt - 1)
                yield from self._queue_backoff(retry, 0)
                continue
            distance = my_ticket - serving
            if (self._leases_on
                    and engine.now - stall_since >= self._lease_duration):
                owner, _epoch, expiry_us = unpack_lease(lease)
                if owner == 0 or sim_us(engine.now) >= expiry_us:
                    # The waiter being served died before stamping a
                    # live lease (CN crash while queued): drop it.
                    try:
                        _old, swapped = yield from qp.cas(
                            serving_addr, serving, (serving + 1) & FULL_MASK)
                    except FaultInjectedError:
                        continue
                    if swapped and BUS.active:
                        BUS.emit("queue.drop", engine.now, addr=lock_addr,
                                 ticket=serving, by=owner_name)
                    stall_since = engine.now
                    continue
            qp.stats.retries += 1
            yield from self._queue_backoff(retry, distance)

    def _queue_backoff(self, retry, distance: int) -> Generator:
        """Sleep between queue polls.

        A waiter *distance* tickets from the head expects ~*distance*
        lock tenures before its turn, so it sleeps roughly that long
        between polls: deep queues impose near-zero poll load on the MN
        NIC, which is the ticket queue's whole advantage over a CAS spin
        under skew (the spinners' atomics congest the NIC rx queue that
        every holder's data path also needs).  The next-in-line waiter
        escalates like the optimistic spin instead, keeping the handoff
        gap tight while still backing off on a stall.  Delays are
        jittered from the client's seeded rng so equal-distance waiters
        on different CNs do not poll in lockstep.
        """
        if distance > 1:
            tenures = min(distance - 1, QUEUE_POLL_HORIZON)
            delay = QUEUE_POLL_TENURE * tenures
            delay *= 1.0 + QUEUE_POLL_JITTER * (
                2.0 * self.ctx.rng.random() - 1.0)
        else:
            delay = retry.next_delay(jitter=QUEUE_POLL_JITTER)
        yield self.engine.timeout(delay)

    def _take_ticket(self, lock_addr: int, ticket: int,
                     handoff: bool) -> None:
        """Record winning the queue at *lock_addr* with *ticket*."""
        self._held_tickets[lock_addr] = ticket
        self._sync.acquired(self.ctx.cn.cn_id, self.ctx.name, lock_addr)
        entry = self.ctx.cn.delegation.get(lock_addr)
        if handoff:
            if BUS.active:
                BUS.emit("queue.handoff", self.engine.now, addr=lock_addr,
                         ticket=ticket,
                         handoffs=entry.handoffs if entry else 0)
        elif entry is not None:
            entry.chain = 0

    def _locked(self, lock_addr: int, body, *args,
                phase: Optional[str] = None, **lock_args) -> Generator:
        """The one locked section: take the lock at *lock_addr*
        (:meth:`_lock` with *lock_args*, in a *phase* span if named) and
        return what ``body(guard, *args)`` returns, every path of which
        releases through :meth:`_release`.  If *body* raises with the
        lock still held (a lost releasing batch included), the lock is
        restored first — unless a parked (crashed) client is being
        reclaimed (``GeneratorExit``).  The CN-local lock is released on
        every path.
        """
        acquire = self._lock(lock_addr, **lock_args)
        old_word = yield from (self._phase(phase, acquire) if phase
                               else acquire)
        cn = self.ctx.cn
        local = cn.local_lock(lock_addr)  # held, so the one acquired
        guard = LockGuard(lock_addr, old_word)
        try:
            return (yield from body(guard, *args))
        except GeneratorExit:
            raise
        except BaseException:
            if guard.held:
                yield from self._release(guard, restoring=True)
            raise
        finally:
            if local is not None:
                cn.release_local(lock_addr, local)

    def _release(self, guard: LockGuard, writes: Sequence = (),
                 argmax: Optional[int] = None, vacancy: Optional[int] = None,
                 fences: bytes = b"", restoring: bool = False) -> Generator:
        """The one releasing write: *writes* and the unlock of *guard*'s
        lock (:meth:`_unlock_writes`: ``release_word(argmax, vacancy)``,
        then *fences* on the lock line) in one batch.  Only once it has
        landed is the lock given up — the guard, the held lease and
        ticket dropped, a handoff token parked; a lost batch leaves them
        for :meth:`_locked` to restore.  A *restoring* release (no data,
        no token) is re-issued while lost: each loss left nothing.
        """
        lock_addr = guard.lock_addr
        unlock, token = self._unlock_writes(
            lock_addr, guard.release_word(argmax, vacancy), restoring, fences)
        if unlock:
            batch = [*writes, *unlock]
            send = (partial(self.qp.write, *batch[0]) if len(batch) == 1
                    else partial(self.qp.write_batch, batch))
            yield from (self._until_landed("restore", send) if restoring
                        else send())
        guard.held = False
        self._held_leases.pop(lock_addr, None)
        self._held_tickets.pop(lock_addr, None)
        if token is not None:
            self.ctx.cn.delegation[lock_addr].token = token

    def _unlock_writes(self, lock_addr: int, word: int, restoring: bool,
                       fences: bytes) -> Tuple[List[Tuple[int, bytes]],
                                               Optional[HandoffToken]]:
        """The (addr, payload) writes that release the lock at
        *lock_addr*, leaving *word* (then *fences*) as its metadata, and
        the :class:`HandoffToken` to park once they land (or None);
        builds them and changes no state.

        :meth:`_release` sends them behind the data writes, so the
        unlock rides the same doorbell.  With leases on, they also clear
        the lease (owner and expiry zeroed, epoch preserved); releasing
        a queued acquisition appends the serving-advance write, so the
        FIFO handoff to the next ticket costs no extra round trip.  If
        same-CN waiters are blocked on the local lock table, neither is
        written: a token for the CN delegation table is returned instead
        (at most :data:`HANDOFF_CHAIN_LIMIT` times in a row), and the
        recipient revalidates with one CAS.

        A lease that expired (or was never recorded) means a survivor
        may own the node by now, and writing anything would corrupt it:
        an ordinary release raises
        :class:`~repro.errors.LockLeaseExpiredError`.  A *restoring*
        release returns no writes instead, leaving the lease — and a
        held ticket with it — for survivors to steal and drop, and no
        token: local waiters re-enqueue remotely.
        """
        writes = [(lock_addr, encode_u64(word) + fences)]
        ticket = self._held_tickets.get(lock_addr)
        lease = 0
        if self._leases_on:
            epoch, expiry_us = self._held_leases.get(lock_addr, (0, 0))
            if sim_us(self.engine.now) >= expiry_us:
                if restoring:
                    return [], None
                if BUS.active:
                    BUS.emit("lock.lease_overrun", self.engine.now,
                             addr=lock_addr, owner=self._lease_owner,
                             expired_us=expiry_us)
                raise LockLeaseExpiredError(
                    f"lease on {lock_addr:#x} expired at {expiry_us}us, "
                    f"now {sim_us(self.engine.now)}us: unlock abandoned "
                    f"(raise ClusterConfig.lease_duration)")
            lease = pack_lease(self._lease_owner, epoch, expiry_us)
        if ticket is not None and not restoring:
            entry = self.ctx.cn.delegation.get(lock_addr)
            if (entry is not None and entry.waiting > 0
                    and entry.chain < HANDOFF_CHAIN_LIMIT):
                return writes, HandoffToken(ticket, word, lease)
        if self._leases_on:
            writes.append((lock_addr + LOCK_LEASE_OFFSET,
                           encode_u64(pack_lease(0, epoch, 0))))
        if ticket is not None:
            writes.append((lock_addr + LOCK_SERVING_OFFSET,
                           encode_u64((ticket + 1) & FULL_MASK)))
        return writes, None

    def _until_landed(self, what: str, verb, *args) -> Generator:
        """``verb(*args)`` — one verb, or a whole op — issued again, each
        time counted and backed off under the retry policy, when the
        fabric loses a verb (a lost verb had no effect)."""
        retry = self.retry.start(what, self.engine, self.ctx.rng)
        while True:
            try:
                return (yield from verb(*args))
            except FaultInjectedError:
                retry.check()
                self.qp.stats.retries += 1
                yield from retry.backoff()
