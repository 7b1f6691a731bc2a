"""Shared B-link-tree machinery for DM indexes.

CHIME keeps the internal-node structure of a B+ tree (paper §3.2) and its
node-split / up-propagation protocol follows Sherman's (§4.2.2, §4.4), so
this module hosts everything above the leaf level:

* internal-node reads with optimistic version checks and sibling chasing,
* the per-CN internal-node cache and cached traversal,
* remote lock acquisition (masked-CAS) backed by the CN-local lock table,
* the split of an overfull sorted-array node (any level, sorted leaves
  included) and split-key up-propagation,
* root growth via a remote CAS on the global root pointer,
* host-side construction of sorted-array levels for bulk loading.

Leaf formats and leaf operations are index-specific and live in
subclasses (:mod:`repro.core.chime`, :mod:`repro.baselines.sherman`);
allocation, the public-operation templates and the plain lock pairing
come from :mod:`repro.core.family`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.adaptive import (
    HANDOFF_CHAIN_LIMIT,
    SYNC_OPTIMISTIC,
    DelegationEntry,
    HandoffToken,
    SyncState,
)
from repro.core.family import FamilyClientBase, FamilyIndexBase
from repro.core.node_layout import (
    FULL_MASK,
    LOCK_BIT,
    LOCK_LEASE_OFFSET,
    LOCK_QUEUE_SPAN,
    LOCK_SERVING_OFFSET,
    LOCK_TICKET_OFFSET,
    SortedNodeLayout,
    lease_expiry_us,
    pack_lease,
    sim_us,
    unpack_lease,
)
from repro.core.nodes import ParsedInternal, SortedNodeView
from repro.core.sync import backoff_delay
from repro.errors import (
    FaultInjectedError,
    IndexError_,
    LockLeaseExpiredError,
    OperationTimeoutError,
    QueueWaitTimeoutError,
    RetryExhaustedError,
    TornReadError,
)
from repro.layout import MAX_KEY, StripedSpan, decode_u64, encode_u64
from repro.obs.bus import BUS
from repro.layout.versions import bump_nibble
from repro.memory import NULL_ADDR, addr_mn, addr_offset

#: Remote offset (on MN 0) of the 8-byte global root pointer.
ROOT_PTR_OFFSET = 8

#: Bound on sibling chases during traversal / half-split validation.
MAX_CHASE = 64

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


class TraversalError(IndexError_):
    """Remote traversal failed to converge (exceeded retry budget)."""


@dataclass
class LeafRef:
    """Where traversal landed: a leaf address plus validation context."""

    leaf_addr: int
    parent: Optional[ParsedInternal]
    parent_index: int
    from_cache: bool

    @property
    def expected_next(self) -> Optional[int]:
        """The cached parent's next child pointer (sibling-based
        validation reference, §4.2.3); None when the leaf is the parent's
        last child and the reference is unknowable."""
        if self.parent is None:
            return None
        return self.parent.next_child(self.parent_index)


class BTreeIndexBase(FamilyIndexBase):
    """Host-side state shared by all clients of one tree index."""

    def __init__(self, cluster: Cluster, config) -> None:
        super().__init__(cluster, config)
        self.internal_layout = SortedNodeLayout(config.span, config.key_size,
                                                level_byte=True)
        #: Host-visible hints; the authoritative root pointer lives at
        #: ``root_ptr_addr`` (by default ``ROOT_PTR_OFFSET`` on MN 0 —
        #: note ``make_addr(0, 8) == 8``, so the legacy constant *is* a
        #: global address) and is updated via remote CAS.  Sharded
        #: sub-trees point this at their per-shard root slot on the
        #: shard's home MN (see :class:`repro.memory.PartitionedAllocator`).
        #: (Shortcut: hint propagation to other CNs is instantaneous;
        #: root growth is rare and the remote CAS still serializes it.)
        self.root_ptr_addr = ROOT_PTR_OFFSET
        self.root_addr = NULL_ADDR
        self.root_level = 0
        #: Contention-adaptive synchronization state (ticket queues,
        #: per-leaf mode estimator, stranded-ticket registry); None in
        #: the default optimistic mode, which is what keeps the
        #: historical lock paths event-sequence-identical.
        mode = cluster.config.sync_mode
        self.sync_state: Optional[SyncState] = (
            SyncState(mode) if mode != SYNC_OPTIMISTIC else None)

    # -- bulk load (host-side, off the simulated data path) -------------------

    def _host_write_level(self, layout: SortedNodeLayout,
                          entries: List[Tuple[int, int]], per_node: int,
                          level: int = 0, stored=None) -> List[Tuple[int, int]]:
        """Pack the sorted *entries* into nodes of at most *per_node*,
        chained left to right by their sibling pointers; returns each
        node's ``(fence_low, addr)`` — the entries of the level above.
        *stored* maps a node's entries to what it holds of them."""
        groups = [entries[i:i + per_node]
                  for i in range(0, len(entries), per_node)] or [[]]
        addrs = [self._host_alloc(layout.total_size) for _ in groups]
        bounds = [0] + [group[0][0] for group in groups[1:]] + [MAX_KEY]
        for index, group in enumerate(groups):
            sibling = addrs[index + 1] if index + 1 < len(addrs) else NULL_ADDR
            view = SortedNodeView.compose(
                layout, stored(group) if stored else group, sibling,
                bounds[index], bounds[index + 1], level=level)
            self._host_write(addrs[index], bytes(view.span.data))
        return list(zip(bounds, addrs))

    def _build_internal_levels(self, entries: List[Tuple[int, int]]) -> None:
        """Pack ``(fence_low, child)`` *entries* into full internal nodes,
        level by level, and install the root."""
        layout = self.internal_layout
        # Each level shrinks the entry list by a factor of span; 64 levels
        # bounds any realistic tree (span=1 would otherwise loop forever).
        for level in range(1, 65):
            entries = self._host_write_level(layout, entries, layout.span,
                                             level)
            if len(entries) == 1:
                self._set_root(entries[0][1], level)
                return
        raise RetryExhaustedError(
            "bulk load built 64 internal levels without converging on a "
            "root (span too small for the dataset?)")

    def _set_root(self, addr: int, level: int) -> None:
        self.root_addr = addr
        self.root_level = level
        ptr = self.root_ptr_addr
        self.cluster.mns[addr_mn(ptr)].region.write_u64(addr_offset(ptr),
                                                        addr)

    # -- host-side tree inspection ---------------------------------------------

    def _host_internal(self, addr: int) -> ParsedInternal:
        layout = self.internal_layout
        raw = self._host_read(addr, layout.raw_size)
        return SortedNodeView(layout, StripedSpan(raw, 0)).parse(addr)

    def internal_nodes(self) -> List[Tuple[int, ParsedInternal]]:
        """Walk every internal node host-side (tests, cache accounting)."""
        out: List[Tuple[int, ParsedInternal]] = []
        if self.root_addr == NULL_ADDR:
            return out
        frontier = [self.root_addr]
        seen = set()
        while frontier:
            addr = frontier.pop()
            if addr in seen or addr == NULL_ADDR:
                continue
            seen.add(addr)
            parsed = self._host_internal(addr)
            out.append((addr, parsed))
            if parsed.level > 1:
                frontier.extend(parsed.children[:parsed.count])
        return out

    def leftmost_leaf(self) -> int:
        """Host-side descent through ``children[0]`` to the leftmost
        leaf (``NULL_ADDR`` without a root).  The sibling chain from
        there is the authoritative leaf set: :meth:`leaf_addrs` relies
        on parent entries, which a half-split bypasses."""
        addr = self.root_addr
        for _level in range(64):
            if addr == NULL_ADDR:
                break
            parsed = self._host_internal(addr)
            addr = parsed.children[0]
            if parsed.level == 1:
                return addr
        return NULL_ADDR

    def leaf_addrs(self) -> List[int]:
        """Addresses of every leaf, in key order (host-side)."""
        addrs: List[int] = []
        for _addr, parsed in self.internal_nodes():
            if parsed.level == 1:
                addrs.extend(parsed.children[:parsed.count])
        return addrs

    def cache_bytes_needed(self) -> int:
        """Bytes required to cache the full internal structure on one CN."""
        total = self.internal_layout.total_size
        return len(self.internal_nodes()) * total

    def height(self) -> int:
        return self.root_level


class BTreeClientBase(FamilyClientBase):
    """Per-client machinery above the leaf level."""

    scan = FamilyClientBase._scan_op

    def __init__(self, index: BTreeIndexBase, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
        self.layout = index.leaf_layout
        cluster_cfg = index.cluster.config
        self._leases_on = cluster_cfg.lock_leases
        self._lease_duration = cluster_cfg.lease_duration
        self._lease_owner = ctx.lease_owner
        #: lock_addr -> (epoch, expiry_us) for leases this client holds.
        self._held_leases: Dict[int, Tuple[int, int]] = {}
        #: Adaptive sync state shared by all clients of the index (None
        #: in optimistic mode) and the queue tickets this client holds.
        self._sync = index.sync_state
        self._held_tickets: Dict[int, int] = {}
        #: Running mean of keys per leaf as this client's scans find them
        #: (sizes a scan's first batch), seeded with a bulk-loaded leaf's.
        self._leaf_keys = index.config.bulk_load_factor * index.config.span

    # -- remote locks --------------------------------------------------------------

    def _lock(self, lock_addr: int, zero_rest: bool = True,
              piggyback: bool = True, repair=None) -> Generator:
        """:meth:`FamilyClientBase._lock`, lease- and sync-mode-aware.

        With lease-based locks (``ClusterConfig.lock_leases``), the spin
        runs on the (owner, epoch, expiry) lease word instead and may
        steal an orphaned lease past its expiry; *repair* is a nullary
        generator callback run after a steal, before the caller proceeds
        (leaf callers pass their repair routine).

        With a non-default ``ClusterConfig.sync_mode`` the acquire is
        routed through :meth:`_lock_adaptive`, which may replace the
        open spin with a CIDER-style FIFO ticket queue
        (:meth:`_lock_queued`) per the per-leaf policy.
        """
        if self._sync is not None:
            return self._lock_adaptive(lock_addr, zero_rest, piggyback,
                                       repair)
        return super()._lock(lock_addr, zero_rest, piggyback, repair)

    def _remote_acquire(self, lock_addr: int, zero_rest: bool,
                        piggyback: bool, repair) -> Generator:
        if self._leases_on:
            return self._lock_leased(lock_addr, repair)
        return self._lock_spin(lock_addr, zero_rest, piggyback)

    def _lock_adaptive(self, lock_addr: int, zero_rest: bool,
                       piggyback: bool, repair=None) -> Generator:
        """Mode-dispatching acquire for pessimistic/adaptive sync modes.

        Same contract as :meth:`_lock`.  While blocked on the CN-local
        lock table a waiter is counted in the delegation entry, so a
        releasing holder knows to park a :class:`HandoffToken` instead
        of advancing the remote queue; the woken waiter claims the token
        even if the leaf flipped back to optimistic meanwhile — an
        orphaned token would strand the remote serving word.
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
                waiting = entry.waiting if entry is not None else 0
                old = yield from self._lock_queued(
                    lock_addr, zero_rest, piggyback, repair, token,
                    local_waiting=waiting)
            else:
                old = yield from self._remote_acquire(lock_addr, zero_rest,
                                                      piggyback, repair)
        except BaseException:
            if local is not None:
                local.release()
            raise
        return old

    def _lock_queued(self, lock_addr: int, zero_rest: bool, piggyback: bool,
                     repair=None, token: Optional[HandoffToken] = None,
                     local_waiting: int = 0) -> Generator:
        """CIDER-style pessimistic acquire: FIFO ticket queue on the lock line.

        One FAA on the next-ticket word claims a queue position; the
        waiter then polls the 48-byte lock line (metadata word, lease,
        dispenser, now-serving in one READ) with distance-proportional
        jittered backoff until the serving word reaches its ticket.  The
        winner takes ownership by stamping the lease word (epoch + 1,
        full-word CAS — exactly :meth:`_lock_leased`'s commit, so steal/
        repair/overrun recovery compose unchanged), or, with leases off,
        by the same masked-CAS as :meth:`_lock_spin` (which keeps mutual
        exclusion against mixed-mode optimistic writers in adaptive
        runs).

        Recovery: a waiter that watches the serving word stall a full
        lease duration with no live lease CASes it forward, dropping the
        dead waiter's ticket (``queue.drop``); a winner whose lease CAS
        finds an expired foreign lease steals it and runs *repair* — the
        crashed-holder path.  A waiter whose own ticket was dropped
        (serving passed it while it was parked) re-enqueues with a fresh
        FAA.  The whole wait is bounded by the retry policy; exhaustion
        raises :class:`~repro.errors.QueueWaitTimeoutError` and abandons
        the ticket for survivors to drop.

        A delegation *token* short-circuits all of the above: the ticket
        is adopted from the releasing same-CN holder and revalidated
        with a single CAS; on a race (mixed-mode interference) the
        waiter keeps the inherited ticket and falls into the poll loop.
        """
        sync = self._sync
        engine = self.engine
        qp = self.qp
        cn_id = self.ctx.cn.cn_id
        owner_name = self.ctx.name
        ticket_addr = lock_addr + LOCK_TICKET_OFFSET
        serving_addr = lock_addr + LOCK_SERVING_OFFSET
        lease_addr = lock_addr + LOCK_LEASE_OFFSET
        swap_mask = (FULL_MASK if zero_rest else LOCK_BIT) if piggyback \
            else LOCK_BIT

        my_ticket: Optional[int] = None
        if token is not None:
            my_ticket = token.ticket
            sync.register(cn_id, owner_name, lock_addr, my_ticket)
            self._note_queue(lock_addr, local_waiting + 1)
            if self._leases_on:
                _owner, epoch, _expiry = unpack_lease(token.lease)
                new_expiry = lease_expiry_us(engine.now,
                                             self._lease_duration)
                new_lease = pack_lease(self._lease_owner, epoch + 1,
                                       new_expiry)
                _old, swapped = yield from qp.cas(lease_addr, token.lease,
                                                  new_lease)
                if swapped:
                    self._held_leases[lock_addr] = (
                        (epoch + 1) & 0xFFFFF, new_expiry)
                    self._take_ticket(lock_addr, my_ticket, handoff=True)
                    return token.word & ~LOCK_BIT
            else:
                old, swapped = yield from qp.masked_cas(
                    lock_addr, compare=0, swap=LOCK_BIT,
                    compare_mask=LOCK_BIT, swap_mask=swap_mask)
                if swapped:
                    self._take_ticket(lock_addr, my_ticket, handoff=True)
                    if not piggyback:
                        data = yield from qp.read(lock_addr, 8)
                        return decode_u64(data) & ~LOCK_BIT
                    return old
            # The handoff raced (lease stolen / lock bit held by a
            # mixed-mode writer): keep the inherited ticket and poll.

        retry = self.retry.start("queue {:#x}", engine, self.ctx.rng,
                                 lock_addr)
        if my_ticket is None:
            # Register intent before the FAA (ticket -1 = in flight): a
            # CN crash parking this lane at the FAA itself must still
            # show up in the stranded-ticket registry.
            sync.register(cn_id, owner_name, lock_addr, -1)
            my_ticket = yield from qp.faa(ticket_addr, 1)
            sync.register(cn_id, owner_name, lock_addr, my_ticket)
        enqueue_seen = token is not None
        last_serving: Optional[int] = None
        stall_since = engine.now
        while True:
            try:
                retry.check()
            except (RetryExhaustedError, OperationTimeoutError) as exc:
                sync.abandon(cn_id, owner_name, lock_addr)
                if BUS.active:
                    BUS.emit("queue.wait_timeout", engine.now,
                             addr=lock_addr, ticket=my_ticket,
                             attempts=retry.attempt)
                raise QueueWaitTimeoutError(
                    f"queue {lock_addr:#x}: ticket {my_ticket} never "
                    f"served ({exc})") from exc
            line = yield from qp.read(lock_addr, LOCK_QUEUE_SPAN)
            word = decode_u64(line, 0)
            lease = decode_u64(line, LOCK_LEASE_OFFSET)
            serving = decode_u64(line, LOCK_SERVING_OFFSET)
            if serving != last_serving:
                last_serving = serving
                stall_since = engine.now
            if not enqueue_seen:
                enqueue_seen = True
                depth = max(my_ticket - serving, 0) + local_waiting
                self._note_queue(lock_addr, depth)
                if BUS.active:
                    BUS.emit("queue.enqueue", engine.now, addr=lock_addr,
                             ticket=my_ticket, depth=depth)
            if serving > my_ticket:
                # Survivors dropped our ticket as dead while we were
                # backing off; rejoin the queue with a fresh FAA.
                my_ticket = yield from qp.faa(ticket_addr, 1)
                sync.register(cn_id, owner_name, lock_addr, my_ticket)
                continue
            if serving == my_ticket:
                if self._leases_on:
                    owner, epoch, expiry_us = unpack_lease(lease)
                    now_us = sim_us(engine.now)
                    stealing = owner != 0
                    if stealing and now_us < expiry_us:
                        # A live lease at our turn: mixed-mode optimistic
                        # holder (adaptive runs).  Wait it out.
                        qp.stats.retries += 1
                        yield from self._queue_backoff(retry, 0)
                        continue
                    new_expiry = lease_expiry_us(engine.now,
                                                 self._lease_duration)
                    new_lease = pack_lease(self._lease_owner, epoch + 1,
                                           new_expiry)
                    _old, swapped = yield from qp.cas(lease_addr, lease,
                                                      new_lease)
                    if not swapped:
                        qp.stats.retries += 1
                        yield from self._queue_backoff(retry, 0)
                        continue
                    self._held_leases[lock_addr] = (
                        (epoch + 1) & 0xFFFFF, new_expiry)
                    self._take_ticket(lock_addr, my_ticket, handoff=False)
                    if stealing:
                        if BUS.active:
                            BUS.emit("lock.lease_expired", engine.now,
                                     addr=lock_addr, owner=owner,
                                     epoch=epoch, expired_us=expiry_us)
                            BUS.emit("lock.steal", engine.now,
                                     addr=lock_addr, victim=owner,
                                     thief=self._lease_owner,
                                     epoch=epoch + 1)
                        if repair is not None:
                            repaired = yield from repair()
                            if repaired is not None:
                                word = repaired
                    return word & ~LOCK_BIT
                old, swapped = yield from qp.masked_cas(
                    lock_addr, compare=0, swap=LOCK_BIT,
                    compare_mask=LOCK_BIT, swap_mask=swap_mask)
                if swapped:
                    self._take_ticket(lock_addr, my_ticket, handoff=False)
                    if not piggyback:
                        data = yield from qp.read(lock_addr, 8)
                        return decode_u64(data) & ~LOCK_BIT
                    return old
                # A mixed-mode optimistic writer holds the bit.
                qp.stats.retries += 1
                if BUS.active:
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
                    _old, swapped = yield from qp.cas(
                        serving_addr, serving, (serving + 1) & FULL_MASK)
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
            delay = backoff_delay(retry.attempt - 1, rng=self.ctx.rng,
                                  jitter=QUEUE_POLL_JITTER)
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

    def _note_optimistic(self, lock_addr: int, failures: int) -> None:
        """Feed one optimistic acquisition into the adaptive estimator."""
        sync = self._sync
        if sync is None:
            return
        switched = sync.note_optimistic(lock_addr, failures,
                                        self.engine.now)
        if switched is not None and BUS.active:
            BUS.emit("sync.mode_switch", self.engine.now, addr=lock_addr,
                     mode=switched, direction="up")

    def _note_queue(self, lock_addr: int, depth: int) -> None:
        """Feed one queued acquisition into the adaptive estimator."""
        switched = self._sync.note_queue(lock_addr, depth, self.engine.now)
        if switched is not None and BUS.active:
            BUS.emit("sync.mode_switch", self.engine.now, addr=lock_addr,
                     mode=switched, direction="down")

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
        lease_addr = lock_addr + LOCK_LEASE_OFFSET
        retry = self.retry.start("lease {:#x}", self.engine, self.ctx.rng,
                                 lock_addr)
        while retry.check():
            line = yield from self.qp.read(lock_addr, LOCK_LEASE_OFFSET + 8)
            word = decode_u64(line, 0)
            lease = decode_u64(line, LOCK_LEASE_OFFSET)
            owner, epoch, expiry_us = unpack_lease(lease)
            now_us = sim_us(self.engine.now)
            stealing = owner != 0
            if stealing and now_us < expiry_us:
                self.qp.stats.retries += 1
                if BUS.active:
                    BUS.emit("lock.cas_fail", self.engine.now, addr=lock_addr,
                             attempt=retry.attempt - 1)
                yield from retry.backoff()
                continue
            new_expiry = lease_expiry_us(self.engine.now,
                                         self._lease_duration)
            new_lease = pack_lease(self._lease_owner, epoch + 1, new_expiry)
            _old, swapped = yield from self.qp.cas(lease_addr, lease,
                                                   new_lease)
            if not swapped:
                self.qp.stats.retries += 1
                yield from retry.backoff()
                continue
            self._held_leases[lock_addr] = ((epoch + 1) & 0xFFFFF, new_expiry)
            if self._sync is not None:
                self._note_optimistic(lock_addr, retry.attempt - 1)
            if stealing:
                if BUS.active:
                    BUS.emit("lock.lease_expired", self.engine.now,
                             addr=lock_addr, owner=owner, epoch=epoch,
                             expired_us=expiry_us)
                    BUS.emit("lock.steal", self.engine.now, addr=lock_addr,
                             victim=owner, thief=self._lease_owner,
                             epoch=epoch + 1)
                if repair is not None:
                    repaired = yield from repair()
                    if repaired is not None:
                        word = repaired
            return word & ~LOCK_BIT

    def _unlock_writes(self, lock_addr: int, word: int = 0):
        """The (addr, payload) writes that release the lock at *lock_addr*.

        Callers append these to their data write batch so the unlock
        rides the same doorbell.  With leases on, the batch also clears
        the lease (owner and expiry zeroed, epoch preserved) — unless
        the lease already expired, in which case a survivor may own the
        node by now and writing anything would corrupt it:
        :class:`~repro.errors.LockLeaseExpiredError` is raised instead.

        Releasing a queued (pessimistic) acquisition appends the
        serving-advance write — FIFO handoff to the next ticket rides
        the same doorbell, costing zero extra round trips.  If same-CN
        waiters are blocked on the local lock table, the remote advance
        and lease-clear are skipped entirely: a :class:`HandoffToken` is
        parked in the CN delegation table instead, and the recipient
        revalidates with one CAS.
        """
        writes = super()._unlock_writes(lock_addr, word)
        ticket = (self._held_tickets.pop(lock_addr, None)
                  if self._sync is not None else None)
        handoff_entry: Optional[DelegationEntry] = None
        if ticket is not None:
            entry = self.ctx.cn.delegation.get(lock_addr)
            if (entry is not None and entry.waiting > 0
                    and entry.chain < HANDOFF_CHAIN_LIMIT):
                handoff_entry = entry
        if self._leases_on:
            held = self._held_leases.pop(lock_addr, None)
            if held is not None:
                epoch, expiry_us = held
                if sim_us(self.engine.now) >= expiry_us:
                    if BUS.active:
                        BUS.emit("lock.lease_overrun", self.engine.now,
                                 addr=lock_addr, owner=self._lease_owner,
                                 expired_us=expiry_us)
                    raise LockLeaseExpiredError(
                        f"lease on {lock_addr:#x} expired at {expiry_us}us, "
                        f"now {sim_us(self.engine.now)}us: unlock abandoned "
                        f"(raise ClusterConfig.lease_duration)")
                if handoff_entry is not None:
                    handoff_entry.token = HandoffToken(
                        ticket, word,
                        pack_lease(self._lease_owner, epoch, expiry_us))
                    return writes
                writes.append((lock_addr + LOCK_LEASE_OFFSET,
                               encode_u64(pack_lease(0, epoch, 0))))
        elif handoff_entry is not None:
            handoff_entry.token = HandoffToken(ticket, word, 0)
            return writes
        if ticket is not None:
            writes.append((lock_addr + LOCK_SERVING_OFFSET,
                           encode_u64((ticket + 1) & FULL_MASK)))
        return writes

    def _restore_unlock(self, lock_addr: int, word: int = 0) -> Generator:
        """Best-effort unlock on an exception path.

        Unlike :meth:`_unlock_writes` this never raises: a lease that
        expired (or was never recorded) is simply left for survivors to
        steal — the stealer owns the node now and must not be clobbered.

        A held queue ticket advances the serving word (no delegation
        handoff on exception paths — local waiters re-enqueue remotely),
        unless the lease is gone, in which case the ticket is abandoned
        with it and survivors drop it.
        """
        ticket = (self._held_tickets.pop(lock_addr, None)
                  if self._sync is not None else None)
        serving_writes = [] if ticket is None else [
            (lock_addr + LOCK_SERVING_OFFSET,
             encode_u64((ticket + 1) & FULL_MASK))]
        if self._leases_on:
            held = self._held_leases.pop(lock_addr, None)
            if held is None or sim_us(self.engine.now) >= held[1]:
                return
            yield from self.qp.write_batch([
                (lock_addr, encode_u64(word)),
                (lock_addr + LOCK_LEASE_OFFSET,
                 encode_u64(pack_lease(0, held[0], 0)))] + serving_writes)
        elif serving_writes:
            yield from self.qp.write_batch(
                [(lock_addr, encode_u64(word))] + serving_writes)
        else:
            yield from super()._restore_unlock(lock_addr, word)

    # -- internal node IO --------------------------------------------------------------

    def _read_internal(self, addr: int) -> Generator:
        """READ + optimistically validate + parse an internal node."""
        layout = self.index.internal_layout
        view = yield from self._read_sorted_node(addr, layout)
        parsed = view.parse(addr)
        self.ctx.cache.put(addr, parsed, layout.total_size)
        return parsed

    def _read_internal_covering(self, addr: int, key: int) -> Generator:
        """Read an internal node, chasing siblings until it covers *key*."""
        for _hop in range(MAX_CHASE):
            parsed = yield from self._read_internal(addr)
            if parsed.covers(key):
                return parsed
            if key >= parsed.fence_high and parsed.sibling != NULL_ADDR:
                addr = parsed.sibling
                continue
            return None  # stale path (key below fences): restart from root
        raise TraversalError(f"sibling chase exceeded {MAX_CHASE} hops")

    # -- traversal ------------------------------------------------------------------------

    def _locate_leaf(self, key: int) -> Generator:
        """Descend to the leaf covering *key*, preferring cached nodes."""
        retry = self.retry.start("traversal key={}", self.engine,
                                 self.ctx.rng, key)
        while retry.check():
            addr = self.index.root_addr
            if addr == NULL_ADDR:
                raise TraversalError("index has no root; bulk_load first")
            result = yield from self._descend(addr, key, target_level=0)
            if result is not None:
                return result
            yield from retry.backoff()

    def _descend(self, addr: int, key: int, target_level: int) -> Generator:
        """One root-to-target descent; None means restart from the root.

        ``target_level=0`` returns a :class:`LeafRef`; higher targets
        return the :class:`ParsedInternal` at that level (used by split
        up-propagation to find ancestors).
        """
        for _depth in range(MAX_CHASE):
            cached = self.ctx.cache.get(addr)
            if cached is not None and cached.valid and cached.covers(key):
                parsed = cached
                node_from_cache = True
            else:
                parsed = yield from self._read_internal_covering(addr, key)
                node_from_cache = False
                if parsed is None:
                    return None
            if parsed.level == target_level:
                return parsed
            if parsed.level < max(target_level, 1):
                return None  # stale hints routed us below the target
            index, child = parsed.find_child(key)
            if parsed.level == 1 and target_level == 0:
                return LeafRef(child, parsed, index, node_from_cache)
            addr = child
        raise TraversalError(f"descent exceeded {MAX_CHASE} levels "
                             "(corrupt level pointers?)")

    # -- range scan ---------------------------------------------------------------------------

    def _scan(self, key: int, count: int) -> Generator:
        retry = self.retry.start("scan({})", self.engine, self.ctx.rng, key)
        while retry.check():
            try:
                result = yield from self._scan_once(key, count)
            except FaultInjectedError:
                self.qp.stats.retries += 1
                yield from retry.backoff()
                continue
            return result

    def _scan_once(self, key: int, count: int) -> Generator:
        """Candidate leaves from the (possibly cached) parent in one
        doorbell batch (§4.4), then the sibling chain for the tail."""
        ref = yield from self._phase("traverse", self._locate_leaf(key))
        addrs = self._scan_batch(ref, key, count)
        results: List[Tuple[int, int]] = []
        first = True
        while True:  # the chain ends: the last leaf's sibling is null
            leaves = yield from self._phase(
                "leaf_read", self._read_scan_leaves(addrs, key))
            for index, (pairs, sibling) in enumerate(leaves):
                results.extend(pairs)
                if not first:  # past the first leaf every key is >= *key*
                    self._leaf_keys += (len(pairs) - self._leaf_keys) / 16
                first = False
                if index + 1 < len(addrs) and sibling != addrs[index + 1]:
                    # The parent predates a split of this leaf: its next
                    # child is not the next leaf.  Follow the chain.
                    self.ctx.cache.invalidate(ref.parent.addr)
                    break
            if len(results) >= count or sibling == NULL_ADDR:
                break
            addrs = [sibling]
        results.sort()
        del results[count:]
        if self.config.indirect_values:
            results = yield from self._resolve_indirect(results)
        return results

    def _scan_batch(self, ref: LeafRef, key: int, count: int) -> List[int]:
        """The scan's first batch: the leaf holding *key*, then further
        children of the parent while the pairs expected so far — the
        share of the first leaf's pivot range at or above *key*, then
        this client's mean keys per leaf for each — fall short of
        *count*."""
        parent, index = ref.parent, ref.parent_index
        addrs = [ref.leaf_addr]
        if parent is None or index + 1 >= parent.count:
            return addrs
        low, high = parent.pivots[index], parent.pivots[index + 1]
        expected = self._leaf_keys * (high - max(key, low)) / (high - low)
        for child in parent.children[index + 1:parent.count]:
            if expected >= count:
                break
            addrs.append(child)
            expected += self._leaf_keys
        return addrs

    def _read_scan_leaves(self, addrs: List[int], key: int) -> Generator:
        """Whole-leaf READs of *addrs* in one batch, each decoded by the
        family's ``_scan_leaf(raw, key) -> (pairs >= key, sibling)`` and
        re-read alone while that finds it torn."""
        size = self.layout.raw_size
        payloads = yield from self.qp.read_batch(
            [(addr, size) for addr in addrs])
        leaves = []
        for addr, raw in zip(addrs, payloads):
            retry = None
            while True:
                try:
                    leaves.append(self._scan_leaf(raw, key))
                    break
                except TornReadError:
                    retry = retry or self.retry.start(
                        "scan leaf {:#x}", self.engine, self.ctx.rng, addr)
                    retry.check()
                    self.qp.stats.retries += 1
                    yield from retry.backoff()
                    raw = yield from self.qp.read(addr, size)
        return leaves

    # -- split up-propagation --------------------------------------------------------------

    def _propagate_split(self, parent_hint: Optional[ParsedInternal],
                         level: int, old_addr: int, split_key: int,
                         new_addr: int) -> Generator:
        """Insert ``(split_key -> new_addr)`` into the parent level.

        *level* is the level the new entry belongs to (1 for leaf splits).
        Follows the paper's Step 1-3 (§4.4): lock parent, insert or split
        recursively, grow the root when the split node was the root.
        """
        if old_addr == self.index.root_addr:
            yield from self._grow_root(old_addr, split_key, new_addr, level)
            return
        layout = self.index.internal_layout
        parent_addr = parent_hint.addr if parent_hint is not None else NULL_ADDR
        if parent_addr == NULL_ADDR:
            parent = yield from self._descend(self.index.root_addr, split_key,
                                              target_level=level)
            if parent is None or isinstance(parent, LeafRef):
                raise TraversalError("no parent found for split propagation")
            parent_addr = parent.addr
        for _hop in range(MAX_CHASE):
            lock_addr = parent_addr + layout.lock_offset
            yield from self._lock(lock_addr, zero_rest=False)
            try:
                parsed = yield from self._read_internal(parent_addr)
                if not parsed.covers(split_key):
                    # The parent itself split concurrently; chase.
                    yield from self._unlock_remote(lock_addr)
                    next_addr = parsed.sibling
                    if next_addr == NULL_ADDR:
                        raise TraversalError(
                            "split key fell off the parent chain")
                    parent_addr = next_addr
                    continue
                yield from self._insert_into_internal(
                    parent_addr, parsed, split_key, new_addr, level)
                return
            finally:
                self._release_local(lock_addr)
        raise TraversalError(f"parent chase exceeded {MAX_CHASE} hops")

    def _split_if_full(self, layout: SortedNodeLayout,
                       items: List[Tuple[int, int]], sibling: int,
                       fence_high: int, level: int = 0) -> Generator:
        """With a locked node about to hold the sorted *items*: if they
        overflow it, first WRITE their right half to a fresh sibling.
        Returns ``(items, sibling, fence_high, split)`` — what the node
        now holds, and ``(pivot, new_addr, right view)`` or None."""
        if len(items) <= layout.span:
            return items, sibling, fence_high, None
        mid = len(items) // 2
        pivot = items[mid][0]
        new_addr, right = yield from self._write_fresh_node(
            layout, items[mid:], sibling, pivot, fence_high, level)
        return items[:mid], new_addr, pivot, (pivot, new_addr, right)

    def _insert_into_internal(self, addr: int, parsed: ParsedInternal,
                              split_key: int, new_addr: int,
                              level: int) -> Generator:
        """With *addr* locked: add the entry, splitting the node if full."""
        layout = self.index.internal_layout
        entries = list(zip(parsed.pivots, parsed.children))
        entries.insert(bisect_right(parsed.pivots, split_key),
                       (split_key, new_addr))
        entries, sibling, fence_high, split = yield from self._split_if_full(
            layout, entries, parsed.sibling, parsed.fence_high, parsed.level)
        if split is not None:
            up_key, new_node_addr, right = split
            self.ctx.cache.put(new_node_addr, right.parse(new_node_addr),
                               layout.total_size)
        # The node itself — its sibling pointer publishes a new right
        # half — with the unlock batched behind it (one round trip).
        view = SortedNodeView.compose(
            layout, entries, sibling, parsed.fence_low, fence_high,
            nv=bump_nibble(parsed.nv), level=parsed.level)
        yield from self.qp.write_batch(
            [(addr, bytes(view.span.data))]
            + self._unlock_writes(addr + layout.lock_offset))
        self.ctx.cache.put(addr, view.parse(addr), layout.total_size)
        if split is not None:
            yield from self._propagate_split(None, level + 1, addr, up_key,
                                             new_node_addr)

    def _grow_root(self, old_root: int, split_key: int, new_addr: int,
                   level: int) -> Generator:
        """Allocate a new root pointing at the two halves and CAS the
        global root pointer (§4.4 Step 3)."""
        layout = self.index.internal_layout
        root_addr, view = yield from self._write_fresh_node(
            layout, [(0, old_root), (split_key, new_addr)], NULL_ADDR, 0,
            MAX_KEY, level=level)
        old, swapped = yield from self.qp.cas(self.index.root_ptr_addr,
                                              old_root, root_addr)
        if swapped:
            self.index.root_addr = root_addr
            self.index.root_level = level
            self.ctx.cache.put(root_addr, view.parse(root_addr),
                               layout.total_size)
        else:
            # Someone else grew the root first (our hint was stale): adopt
            # theirs and insert our entry through the normal path.
            self.index.root_addr = old
            self.index.root_level = max(self.index.root_level, level)
            yield from self._propagate_split(None, level, NULL_ADDR,
                                             split_key, new_addr)
