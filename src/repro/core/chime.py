"""CHIME: the cache-efficient high-performance hybrid index (paper §4).

B+-tree internal nodes (shared machinery in
:mod:`repro.core.btree_base`) with hopscotch-hash leaf nodes, plus the
paper's three techniques:

* three-level optimistic synchronization — readers run the NV / EV /
  bitmap checks of :mod:`repro.core.sync` and retry on torn states
  (under ``sync_mode`` pessimistic/adaptive, writers instead acquire
  the leaf through the CIDER-style ticket queue of
  :mod:`repro.core.adaptive`; the lock/unlock call sites here are
  mode-agnostic — :meth:`BTreeClientBase._lock` and
  ``_unlock_writes`` route to the queued path internally);
* access-aggregated metadata management — the vacancy bitmap and
  ``argmax_keys`` ride in the 8-byte lock word (acquired via masked-CAS,
  rewritten by the combined unlocking WRITE), and leaf metadata is
  replicated once per neighborhood block so every neighborhood READ
  carries a replica;
* hotness-aware speculative reads through the per-CN
  :class:`~repro.core.hotspot.HotspotBuffer`.

Engineering notes (deviations are listed in DESIGN.md):

* each leaf's trailing lock cache line also stores the leaf's fence keys
  at offset 8 (written only on create/split).  They resolve the one
  routing case the paper's ``argmax_keys`` mechanism cannot: an insert
  landing on a parent's *last* child, where no "next child pointer"
  exists to compare sibling pointers against.  The ``argmax_keys``
  mechanism itself is implemented and used for the paper's corner case
  (sibling mismatch against a cached parent).
* leaf splits use the median of *all* keys as the split key (the paper
  uses the median of the keys in the failed hop sequence); both choices
  guarantee the pending key is insertable afterwards.
* node merges on delete are not implemented (deletes clear entries in
  place); none of the paper's workloads delete.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.config import ChimeConfig
from repro.core.btree_base import (
    BTreeClientBase,
    BTreeIndexBase,
    LeafRef,
    MAX_CHASE,
)
from repro.core.hotspot import HotspotBuffer
from repro.core.leaf_ops import (
    HopscotchLeafOpsMixin,
    place_items,
    slot_columns,
)
from repro.core.node_layout import (
    LeafLayout,
    VacancyBitmap,
    pack_lock_word,
    unpack_lock_word,
)
from repro.core.nodes import LeafNodeView
from repro.core.sync import reconstruct_bitmaps
from repro.errors import (
    FaultInjectedError,
    HashTableFullError,
    IndexError_,
    LayoutError,
    TornReadError,
)
from repro.hashing.hopscotch import (
    default_hash,
    distance,
    find_first_empty,
    place_fresh,
    plan_insert,
)
from repro.layout import (
    MAX_KEY,
    StripedSpan,
    decode_key,
    encode_key,
    encode_u64,
)
from repro.layout.versions import SpanSet, bump_nibble, raw_span
from repro.memory import NULL_ADDR
from repro.obs.bus import BUS

#: Lock-line layout: [lock word: 8][fence_low: 8][fence_high: 8].
LOCKLINE_FENCE_LOW = 8
LOCKLINE_FENCE_HIGH = 16
LOCKLINE_FENCES_LEN = 16

#: Outcomes of a leaf-level attempt.
_DONE = "done"
_RETRAVERSE = "retraverse"
_RETRY = "retry"


@dataclass
class OpResult:
    status: str
    found: bool = False
    value: Optional[int] = None


class LockGuard:
    """Tracks whether the remote leaf lock is still held.

    Unlocks are usually *batched behind data writes*; this guard exists so
    exception paths only issue a restoring unlock when no path already
    released the lock (a double unlock would overwrite the piggybacked
    vacancy/argmax metadata written by the real release).
    """

    __slots__ = ("lock_addr", "argmax", "vacancy", "held")

    def __init__(self, lock_addr: int, old_word: int) -> None:
        self.lock_addr = lock_addr
        _locked, self.argmax, self.vacancy = unpack_lock_word(old_word)
        self.held = True

    def release_word(self, argmax: Optional[int] = None,
                     vacancy: Optional[int] = None) -> int:
        """The unlock word to batch behind a data write; marks released."""
        self.held = False
        return pack_lock_word(
            False,
            self.argmax if argmax is None else argmax,
            self.vacancy if vacancy is None else vacancy)


class ChimeIndex(BTreeIndexBase):
    """Host-side state of one CHIME tree."""

    def __init__(self, cluster: Cluster, config: Optional[ChimeConfig] = None) -> None:
        super().__init__(cluster, config or ChimeConfig())
        if self.config.retry is not None:
            self.retry_policy = self.config.retry
        entry_value_size = 8 if self.config.indirect_values else self.config.value_size
        self.leaf_layout = LeafLayout(
            span=self.config.span,
            neighborhood=self.config.neighborhood,
            key_size=self.config.key_size,
            value_size=entry_value_size,
            replicated=self.config.metadata_replication,
            fence_keys=not self.config.sibling_validation,
        )
        self.vacancy_map = VacancyBitmap(self.config.span)
        self._hotspots: Dict[int, HotspotBuffer] = {}

    # -- clients -----------------------------------------------------------------

    def client(self, ctx: ClientContext) -> "ChimeClient":
        return ChimeClient(self, ctx)

    def hotspot_buffer(self, cn_id: int) -> HotspotBuffer:
        """The per-CN hotspot buffer (created lazily, shared by clients)."""
        buffer = self._hotspots.get(cn_id)
        if buffer is None:
            size = self.config.hotspot_bytes if self.config.speculative_read else 0
            buffer = HotspotBuffer(size)
            self._hotspots[cn_id] = buffer
        return buffer

    def hotspot_stats(self) -> Tuple[int, int, int, int]:
        """(lookups, hits, correct, wrong) summed over CNs."""
        lookups = hits = correct = wrong = 0
        for buffer in self._hotspots.values():
            lookups += buffer.lookups
            hits += buffer.hits
            correct += buffer.correct_speculations
            wrong += buffer.wrong_speculations
        return lookups, hits, correct, wrong

    # -- helpers shared with clients ------------------------------------------------

    def home_of(self, key: int) -> int:
        return default_hash(key, self.config.span)

    # -- bulk load (host-side, off the simulated data path) --------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Populate the tree from sorted, unique (key, value) pairs.

        Leaves are filled to ``config.bulk_load_factor`` of their span
        via local hopscotch placement; internal levels are packed full.
        """
        config = self.config
        layout = self.leaf_layout
        pairs = self._checked_pairs(pairs)
        span, neighborhood = config.span, config.neighborhood
        target = max(1, int(span * config.bulk_load_factor))
        # Each key is placed once, while chunking.  A closed chunk keeps
        # only its items plus its slot and bitmap vectors, packed, until
        # every leaf address is known (leaves are allocated before any
        # indirect block).  A slot is the item's index in the chunk + 1.
        leaves: List[Tuple[List[Tuple[int, int]], array, array]] = []
        current: List[Tuple[int, int]] = []
        slots, homes, bitmaps = [0] * span, [0] * span, [0] * span
        for pair in pairs:
            home = default_hash(pair[0], span)
            if len(current) >= target or not place_fresh(
                    slots, homes, bitmaps, home, neighborhood,
                    len(current) + 1):
                leaves.append((current, array("H", slots),
                               array("H", bitmaps)))
                current = []
                slots, homes, bitmaps = [0] * span, [0] * span, [0] * span
                place_fresh(slots, homes, bitmaps, home, neighborhood, 1)
            current.append(pair)
        leaves.append((current, array("H", slots), array("H", bitmaps)))
        addrs = [self._host_alloc(layout.total_size) for _ in leaves]
        # Fence boundaries: first key of each chunk.
        bounds = ([0] + [chunk[0][0] for chunk, _s, _b in leaves[1:]]
                  + [MAX_KEY])
        level1_entries: List[Tuple[int, int]] = []
        for index, (chunk, slots, bitmaps) in enumerate(leaves):
            sibling = addrs[index + 1] if index + 1 < len(addrs) else NULL_ADDR
            fence_low, fence_high = bounds[index], bounds[index + 1]
            self._host_write_leaf(addrs[index], chunk, slots, bitmaps,
                                  sibling, fence_low, fence_high)
            level1_entries.append((fence_low, addrs[index]))
        self.loaded_items = len(pairs)
        self._build_internal_levels(level1_entries)

    def _host_write_leaf(self, addr: int, chunk: Sequence[Tuple[int, int]],
                         slots: Sequence[int], bitmaps: Sequence[int],
                         sibling: int, fence_low: int,
                         fence_high: int) -> None:
        """Compose + write one bulk-loaded leaf: position ``pos`` holds
        ``chunk[slots[pos] - 1]`` (slot 0 = empty)."""
        layout = self.leaf_layout
        keys, values = slot_columns(chunk, slots)
        if self.config.indirect_values:
            blocks = iter(self._host_alloc_blocks(
                list(compress(keys, keys)), list(compress(values, keys))))
            values = [next(blocks) if key else 0 for key in keys]
        self._host_write(addr, layout.encode_image(
            keys, values, bitmaps, sibling, fence_low, fence_high))
        self._host_write(
            addr + layout.lock_offset,
            encode_u64(self.vacancy_map.lock_word(keys))
            + encode_key(fence_low) + encode_key(fence_high))

    # -- host-side verification helpers -----------------------------------------------

    def collect_items(self) -> List[Tuple[int, int]]:
        """All (key, value) pairs, key-ordered, read host-side (tests)."""
        layout = self.leaf_layout
        out: List[Tuple[int, int]] = []
        for addr in self.leaf_addrs():
            raw = self._host_read(addr, layout.raw_size)
            view = LeafNodeView(layout, StripedSpan(raw, 0))
            for key, value in view.pairs():
                if self.config.indirect_values:
                    value = self._host_read_block(value)[1]
                out.append((key, value))
        out.sort()
        return out

    def average_leaf_load(self) -> float:
        """Mean leaf occupancy (memory-efficiency metric, Fig. 19)."""
        layout = self.leaf_layout
        addrs = self.leaf_addrs()
        if not addrs:
            return 0.0
        total = 0
        for addr in addrs:
            raw = self._host_read(addr, layout.raw_size)
            view = LeafNodeView(layout, StripedSpan(raw, 0))
            total += sum(view.occupancy())
        return total / (len(addrs) * layout.span)


class ChimeClient(BTreeClientBase, HopscotchLeafOpsMixin):
    """One client's view of a CHIME tree: the §4.4 operations.

    The public operations are the family-base templates (RDWC, *op
    span*) over the ``_search/_insert/_update/_delete/_scan`` generators
    below, whose remote-access stages run in *phase spans* (traverse →
    leaf read → speculative read → lock → write-back → split → retry
    backoff), so a trace recording shows exactly where each operation's
    round trips go.  With no bus subscriber the wrappers pass generators
    through untouched.
    """

    def __init__(self, index: ChimeIndex, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
        self.home_of = index.home_of
        self.hotspots = index.hotspot_buffer(ctx.cn.cn_id)

    # ---------------------------------------------------------------- search

    def _search(self, key: int) -> Generator:
        retry = self.retry.start("search({})", self.engine, self.ctx.rng,
                                 key)
        while retry.check():
            try:
                ref = yield from self._phase("traverse",
                                             self._locate_leaf(key))
                result = yield from self._phase("leaf_read",
                                                self._search_leaf(ref, key))
            except FaultInjectedError:
                self.qp.stats.retries += 1
                continue
            if result.status == _RETRAVERSE:
                continue
            if result.found and self.config.indirect_values:
                value = yield from self._phase(
                    "indirect_read", self._read_block(result.value, key))
                return value
            return result.value if result.found else None

    def _search_leaf(self, ref: LeafRef, key: int) -> Generator:
        layout = self.layout
        home = self.index.home_of(key)
        leaf_addr = ref.leaf_addr
        expected = ref.expected_next
        from_cache = ref.from_cache
        # Speculative read (§4.3): one entry instead of a neighborhood.
        if self.config.speculative_read:
            record = self.hotspots.lookup(leaf_addr, home, layout.neighborhood,
                                          layout.span, key)
            if record is not None:
                value = yield from self._phase(
                    "speculative",
                    self._speculative_read(leaf_addr, record, key))
                if value is not None:
                    return OpResult(_DONE, found=True, value=value)
        for _hop in range(MAX_CHASE):
            read = yield from self._read_neighborhood_checked(leaf_addr, home)
            sibling = read.sibling
            mismatch = expected is not None and sibling != expected
            if from_cache and mismatch and ref.parent is not None:
                self.ctx.cache.invalidate(ref.parent.addr)
            hit = read.find(key)
            if hit is not None:
                position, value = hit
                self.hotspots.record_access(leaf_addr, position, key)
                return OpResult(_DONE, found=True, value=value)
            # Not found: half-split validation (§4.2.3).
            if from_cache and mismatch:
                return OpResult(_RETRAVERSE)
            chase = sibling != NULL_ADDR and (mismatch or expected is None)
            if chase and expected is None and _hop:
                chase = yield from self._past_fence(ref, leaf_addr, key)
            if not chase:
                return OpResult(_DONE, found=False)
            leaf_addr = sibling
            from_cache = False
        return OpResult(_RETRAVERSE)  # MAX_CHASE leaves on: start afresh

    def _past_fence(self, ref: LeafRef, leaf_addr: int,
                    key: int) -> Generator:
        """A miss in a leaf reached past its parent's *last* child, where
        no next-child pointer exists to hold the sibling against: the
        leaf's own high fence key (lock line) says whether *key* can
        only be further right — one small READ, on this branch alone.
        If it is, the cached parent predates a split and is dropped."""
        data = yield from self.qp.read(
            leaf_addr + self.layout.lock_offset + LOCKLINE_FENCE_HIGH, 8)
        past = key >= decode_key(data)
        if past and ref.from_cache and ref.parent is not None:
            self.ctx.cache.invalidate(ref.parent.addr)
        return past

    def _speculative_read(self, leaf_addr: int, record, key: int) -> Generator:
        shape = self.layout.entry_shape(record.key_index)
        raw = yield from self._fetch_shape(leaf_addr, shape)
        try:
            hit = shape.decode(raw).find(key)
        except TornReadError:
            self.qp.stats.retries += 1  # torn speculation: fall back
            return None
        if hit is not None:
            self.hotspots.correct_speculations += 1
            self.hotspots.record_access(leaf_addr, record.key_index, key)
            if BUS.active:
                BUS.emit("speculative.correct", self.engine.now,
                         leaf_addr=leaf_addr)
            return hit[1]
        self.hotspots.wrong_speculations += 1
        if BUS.active:
            BUS.emit("speculative.wrong", self.engine.now,
                     leaf_addr=leaf_addr)
        return None

    # ---------------------------------------------------------------- update / delete

    def _update(self, key: int, value: int) -> Generator:
        return self._write_entry("update({})", key, value, delete=False)

    def _delete(self, key: int) -> Generator:
        return self._write_entry("delete({})", key, 0, delete=True)

    def _write_entry(self, what: str, key: int, value: int,
                     delete: bool) -> Generator:
        """Shared update/delete flow: lock, locate entry, write, unlock."""
        home = self.index.home_of(key)
        retry = self.retry.start(what, self.engine, self.ctx.rng, key)
        while retry.check():
            try:
                ref = yield from self._phase("traverse",
                                             self._locate_leaf(key))
                result = yield from self._phase(
                    "leaf_write", self._locked_chase(
                        ref, lambda guard, leaf_addr, from_cache, hop:
                        self._write_entry_locked(
                            guard, ref, leaf_addr, home, key, value, delete,
                            from_cache, hop)))
            except FaultInjectedError:
                self.qp.stats.retries += 1
                continue
            if result.status == _RETRAVERSE:
                continue
            return result.found

    def _locked_chase(self, ref: LeafRef, locked) -> Generator:
        """Lock the leaf *ref* names and run ``locked(guard, leaf_addr,
        from_cache, hop)`` under the lock, again on the sibling each
        time it answers ``"chase"``; whatever else it answers is the
        result.  Every path of *locked* releases the remote lock (the
        guard says whether an exception still has to)."""
        leaf_addr = ref.leaf_addr
        from_cache = ref.from_cache
        for hop in range(MAX_CHASE):
            lock_addr = leaf_addr + self.layout.lock_offset
            old_word = yield from self._phase("lock", self._lock(
                lock_addr, piggyback=not self.config.cxl_atomics,
                repair=lambda addr=leaf_addr: self._repair_leaf(addr)))
            guard = LockGuard(lock_addr, old_word)
            try:
                result = yield from locked(guard, leaf_addr, from_cache, hop)
            except GeneratorExit:
                # A parked (crashed) client being reclaimed must not
                # yield restore verbs — its node is dead.
                raise
            except BaseException:
                if guard.held:
                    yield from self._restore_unlock(lock_addr,
                                                    guard.release_word())
                raise
            finally:
                self._release_local(lock_addr)
            if result.status != "chase":
                return result
            leaf_addr = result.value
            from_cache = False
        return OpResult(_RETRAVERSE)  # MAX_CHASE leaves on: start afresh

    def _write_entry_locked(self, guard: LockGuard, ref: LeafRef,
                            leaf_addr: int, home: int, key: int, value: int,
                            delete: bool, from_cache: bool,
                            hop: int) -> Generator:
        layout = self.layout
        expected = ref.expected_next
        view, position, _spec_hit = yield from self._locate_entry_locked(
            leaf_addr, home, key, allow_speculative=not delete)
        if position is None:
            sibling = view.replica_sibling(
                layout.neighborhood_replica_block(home))
            mismatch = expected is not None and sibling != expected
            chase = sibling != NULL_ADDR and (mismatch or expected is None)
            if chase and expected is None and hop:
                chase = yield from self._past_fence(ref, leaf_addr, key)
            yield from self._unlock_remote(guard.lock_addr,
                                           guard.release_word())
            if from_cache and mismatch and ref.parent is not None:
                self.ctx.cache.invalidate(ref.parent.addr)
                return OpResult(_RETRAVERSE)
            if chase:
                return OpResult("chase", value=sibling)
            return OpResult(_DONE, found=False)
        writes: List[Tuple[int, bytes]] = []
        argmax, vacancy = guard.argmax, guard.vacancy
        if delete:
            self._remove_entry(view, home, position)
            writes.extend(self._entry_writes(leaf_addr, view,
                                             {position, home}))
            vacancy &= ~(1 << self.index.vacancy_map.bit_of(position))
            if position == argmax:
                argmax = yield from self._recompute_argmax(leaf_addr)
            self.hotspots.invalidate(leaf_addr, position)
        else:
            stored = value
            if self.config.indirect_values:
                stored = yield from self._write_block(key, value)
            view.write_entry(position, key, stored)
            writes.extend(self._entry_writes(leaf_addr, view, {position}))
            self.hotspots.record_access(leaf_addr, position, key)
        writes.extend(self._unlock_writes(
            guard.lock_addr, guard.release_word(argmax, vacancy)))
        yield from self.qp.write_batch(writes)
        return OpResult(_DONE, found=True)

    def _locate_entry_locked(self, leaf_addr: int, home: int, key: int,
                             allow_speculative: bool = True) -> Generator:
        """Under the leaf lock: find the entry holding *key*.

        Tries a speculative single-entry read first when the hotspot
        buffer has a credible location ("gets the target entry like the
        search", §4.4), then falls back to the neighborhood.  Returns
        ``(view, position, spec_hit)``; on a speculative hit the view
        only covers the one entry (the caller needs no replica info when
        the key was found; deletes disable speculation because they must
        also rewrite the home entry's bitmap).
        """
        layout = self.layout
        if self.config.speculative_read and allow_speculative:
            record = self.hotspots.lookup(leaf_addr, home, layout.neighborhood,
                                          layout.span, key)
            if record is not None:
                segment = (layout.entry_offset(record.key_index),
                           layout.entry_size)
                view = yield from self._fetch_leaf(leaf_addr, [segment])
                entry = view.entry(record.key_index)
                if entry.occupied and entry.key == key:
                    self.hotspots.correct_speculations += 1
                    if BUS.active:
                        BUS.emit("speculative.correct", self.engine.now,
                                 leaf_addr=leaf_addr)
                    return view, record.key_index, True
                self.hotspots.wrong_speculations += 1
                if BUS.active:
                    BUS.emit("speculative.wrong", self.engine.now,
                             leaf_addr=leaf_addr)
        view = yield from self._fetch_neighborhood_view(leaf_addr, home)
        position = self._find_in_neighborhood(view, home, key)
        return view, position, False

    def _recompute_argmax(self, leaf_addr: int) -> Generator:
        """Full-node read to re-locate the maximum key (rare: deletes of
        the current maximum)."""
        view = yield from self._fetch_whole(leaf_addr)
        return view.argmax_key()

    # ---------------------------------------------------------------- insert

    def _insert(self, key: int, value: int) -> Generator:
        home = self.index.home_of(key)
        retry = self.retry.start("insert({})", self.engine, self.ctx.rng,
                                 key)
        while retry.check():
            try:
                ref = yield from self._phase("traverse",
                                             self._locate_leaf(key))
                result = yield from self._phase(
                    "leaf_write", self._locked_chase(
                        ref, lambda guard, leaf_addr, from_cache, _hop:
                        self._insert_locked(
                            guard, ref, leaf_addr, home, key, value,
                            from_cache)))
            except FaultInjectedError:
                self.qp.stats.retries += 1
                yield from self._sleep_phase("retry_backoff",
                                             retry.next_delay(cap=4))
                continue
            if result.status == _DONE:
                return result.found
            yield from self._sleep_phase("retry_backoff",
                                         retry.next_delay(cap=4))

    def _insert_locked(self, guard: LockGuard, ref: LeafRef, leaf_addr: int,
                       home: int, key: int, value: int,
                       from_cache: bool) -> Generator:
        """The core insert flow, owning the remote lock.

        Every return path below releases the remote lock, either batched
        with the data write or via an explicit unlock write (tracked by
        *guard* so exception cleanup never double-releases).
        """
        layout = self.layout
        config = self.config
        vmap = self.index.vacancy_map
        expected = ref.expected_next
        lock_addr = guard.lock_addr
        argmax, vacancy = guard.argmax, guard.vacancy
        # Decide the read range from the piggybacked vacancy bitmap.
        full_read = not config.vacancy_bitmap
        first_maybe = vmap.first_maybe_empty(vacancy, home) if not full_read else 0
        node_full_hint = (first_maybe == -1)
        if node_full_hint:
            full_read = True
        if full_read:
            last = (home - 1) % layout.span  # whole table, circularly
        else:
            cover = vmap.coverage(vmap.bit_of(first_maybe))
            end = cover[-1] if distance(home, cover[-1], layout.span) \
                >= layout.neighborhood - 1 else \
                (home + layout.neighborhood - 1) % layout.span
            if distance(home, end, layout.span) >= layout.span - 1:
                full_read = True
                end = (home - 1) % layout.span
            last = end
        view, fence_low, fence_high, max_entry = yield from self._insert_read(
            leaf_addr, home, last, argmax)
        sibling = view.replica_sibling(self._range_replica_block(home, last))
        mismatch = expected is not None and sibling != expected
        if mismatch and ref.parent is not None:
            self.ctx.cache.invalidate(ref.parent.addr)
        # Routing: the paper's argmax mechanism for detected half-splits;
        # the lock-line fence keys for the unknown-reference case.
        if mismatch and max_entry is not None and key > max_entry:
            yield from self._unlock_remote(lock_addr, guard.release_word())
            return OpResult("chase", value=sibling)
        if key >= fence_high and sibling != NULL_ADDR:
            yield from self._unlock_remote(lock_addr, guard.release_word())
            return OpResult("chase", value=sibling)
        if key < fence_low:
            yield from self._unlock_remote(lock_addr, guard.release_word())
            return OpResult(_RETRAVERSE)
        # Duplicate check within the neighborhood (upsert semantics; the
        # variable-length-key subclass overrides the handler to chain
        # fingerprint-colliding blocks instead, §4.5).
        duplicate = self._find_in_neighborhood(view, home, key)
        if duplicate is not None:
            result = yield from self._handle_duplicate(
                guard, view, leaf_addr, duplicate, key, value,
                argmax, vacancy)
            return result
        # Find the actual first empty entry in the fetched range.
        empty = self._first_empty(view, home, last)
        if empty is None and not full_read:
            # The coarse bitmap lied for this window; fetch the rest.
            view = yield from self._fetch_whole(leaf_addr)
            full_read = True
            last = (home - 1) % layout.span
            empty = self._first_empty(view, home, last)
        if empty is None:
            result = yield from self._phase("split", self._split_leaf(
                guard, ref, leaf_addr, view if full_read else None,
                fence_low, fence_high))
            return result
        # Plan the hop sequence over the fetched entries.
        home_of = self._make_home_of(view)
        plan = plan_insert(home, empty, layout.span, layout.neighborhood,
                           home_of)
        if plan is not None and self._plan_needs_extension(plan, home, empty):
            view = yield from self._fetch_whole(leaf_addr)
            full_read = True
        if plan is None:
            result = yield from self._phase("split", self._split_leaf(
                guard, ref, leaf_addr, view if full_read else None,
                fence_low, fence_high))
            return result
        if BUS.active:
            BUS.emit("hopscotch.displacement", self.engine.now,
                     moves=len(plan.moves), leaf_addr=leaf_addr)
        # Apply the plan to the local buffer.
        stored = yield from self._stored_value_for_insert(key, value)
        modified = self._apply_plan(view, plan, home, key, stored)
        # Metadata maintenance: vacancy (conservative) + argmax.
        vacancy = self._update_vacancy(view, vacancy, plan.target, full_read,
                                       home, last)
        if max_entry is not None and key > max_entry:
            argmax = plan.target
        elif plan.moves:
            argmax = self._track_argmax_moves(argmax, plan.moves)
        for src, _dst in plan.moves:
            self.hotspots.invalidate(leaf_addr, src)
        writes = self._entry_writes(leaf_addr, view, modified)
        writes.extend(self._unlock_writes(
            lock_addr, guard.release_word(argmax, vacancy)))
        yield from self.qp.write_batch(writes)
        self.hotspots.record_access(leaf_addr, plan.target, key)
        return OpResult(_DONE, found=True)

    def _stored_value_for_insert(self, key: int, value: int) -> Generator:
        """The 8-byte payload a fresh insert stores in the leaf entry
        (the indirect-value block pointer when indirection is on; the
        variable-length-key subclass stores a chain head instead)."""
        if self.config.indirect_values:
            stored = yield from self._write_block(key, value)
            return stored
        return value

    def _handle_duplicate(self, guard: LockGuard, view: LeafNodeView,
                          leaf_addr: int, position: int, key: int,
                          value: int, argmax: int,
                          vacancy: int) -> Generator:
        """Insert hit an existing key: overwrite it (upsert)."""
        stored = value
        if self.config.indirect_values:
            stored = yield from self._write_block(key, value)
        view.write_entry(position, key, stored)
        writes = self._entry_writes(leaf_addr, view, {position})
        writes.extend(self._unlock_writes(
            guard.lock_addr, guard.release_word(argmax, vacancy)))
        yield from self.qp.write_batch(writes)
        return OpResult(_DONE, found=True)

    def _insert_read(self, leaf_addr: int, home: int, last: int,
                     argmax: int) -> Generator:
        """The insert's doorbell-batched READ: hop-range segments, the
        lock-line fence keys, and the argmax entry (when outside the
        range) — one round trip."""
        layout = self.layout
        segments = list(layout.range_segments(home, last))
        covered = layout.entries_covered_by_range(home, last)
        argmax_extra = argmax not in covered
        if argmax_extra:
            segments.append((layout.entry_offset(argmax), layout.entry_size))
        requests = []
        for off, length in segments:
            raw_off, raw_len = raw_span(off, length)
            requests.append((leaf_addr + raw_off, raw_len))
        fence_addr = leaf_addr + layout.lock_offset + LOCKLINE_FENCE_LOW
        requests.append((fence_addr, LOCKLINE_FENCES_LEN))
        payloads = yield from self.qp.read_batch(requests)
        spans = []
        for (off, length), data in zip(segments, payloads[:-1]):
            raw_off, _raw_len = raw_span(off, length)
            spans.append(StripedSpan(data, base=raw_off))
        view = LeafNodeView(layout, SpanSet(spans))
        fences = payloads[-1]
        fence_low = decode_key(fences, 0)
        fence_high = decode_key(fences, 8)
        max_entry_key: Optional[int] = None
        entry = view.entry(argmax)
        if entry.occupied:
            max_entry_key = entry.key
        if not layout.replicated:
            header = yield from self._fetch_leaf(leaf_addr,
                                                 [(0, layout.replica_size)])
            extra = (header.span.spans if isinstance(header.span, SpanSet)
                     else [header.span])
            view.span.spans.extend(extra)
            view.span.spans.sort(key=lambda s: s.base)
        return view, fence_low, fence_high, max_entry_key

    def _segment_entries(self, first: int, last: int) -> set:
        span = self.layout.span
        count = distance(first, last, span) + 1
        return {(first + i) % span for i in range(count)}

    def _first_empty(self, view: LeafNodeView, home: int,
                     last: int) -> Optional[int]:
        span = self.layout.span
        return find_first_empty(lambda pos: view.entry(pos).occupied, home,
                                span, distance(home, last, span) + 1)

    def _plan_needs_extension(self, plan, home: int, empty: int) -> bool:
        """True when a hop's bitmap update lands outside [home, empty]."""
        span = self.layout.span
        reach = distance(home, empty, span)
        return any(distance(home, pos, span) > reach for pos in plan.touched)

    def _update_vacancy(self, view: LeafNodeView, vacancy: int, target: int,
                        full_read: bool, home: int, last: int) -> int:
        """Set the bit covering *target* only when its whole coverage is
        visibly occupied; conservative otherwise (clear = maybe empty)."""
        vmap = self.index.vacancy_map
        bit = vmap.bit_of(target)
        coverage = vmap.coverage(bit)
        known = self._segment_entries(home, last) if not full_read else \
            set(range(self.layout.span))
        if all(pos in known for pos in coverage):
            if all(view.entry(pos).occupied for pos in coverage):
                return vacancy | (1 << bit)
        return vacancy & ~(1 << bit)

    @staticmethod
    def _track_argmax_moves(argmax: int, moves) -> int:
        for src, dst in moves:
            if src == argmax:
                argmax = dst
        return argmax

    def _entry_writes(self, leaf_addr: int, view: LeafNodeView,
                      positions: set) -> List[Tuple[int, bytes]]:
        """Write-back payloads: one raw sub-span per modified entry, with
        adjacent entries coalesced into single WRITEs."""
        layout = self.layout
        ordered = sorted(positions)
        groups: List[List[int]] = []
        for pos in ordered:
            if groups and pos == groups[-1][-1] + 1:
                groups[-1].append(pos)
            else:
                groups.append([pos])
        writes: List[Tuple[int, bytes]] = []
        for group in groups:
            start_off = layout.entry_offset(group[0])
            end_off = layout.entry_offset(group[-1]) + layout.entry_size
            try:
                # Entries within one block are contiguous; crossing a
                # replica boundary keeps the replica bytes in between
                # (harmlessly rewritten with the same content we fetched).
                raw_off, raw_bytes = view.span.sub_span(start_off,
                                                        end_off - start_off)
                writes.append((leaf_addr + raw_off, raw_bytes))
            except LayoutError:
                # The group straddles two fetched segments (wrap-around
                # reads): fall back to one write per entry.
                for pos in group:
                    off = layout.entry_offset(pos)
                    raw_off, raw_bytes = view.span.sub_span(
                        off, layout.entry_size)
                    writes.append((leaf_addr + raw_off, raw_bytes))
        return writes

    # ---------------------------------------------------------------- split

    def _split_leaf(self, guard: LockGuard, ref: LeafRef, leaf_addr: int,
                    full_view: Optional[LeafNodeView], fence_low: int,
                    fence_high: int) -> Generator:
        """Split the locked leaf; returns RETRY so the insert re-runs."""
        layout = self.layout
        lock_addr = guard.lock_addr
        if full_view is None:
            full_view = yield from self._fetch_whole(leaf_addr)
        items = sorted(full_view.pairs())
        if not items:
            raise IndexError_("split of an empty leaf")
        mid = len(items) // 2
        split_key = items[mid - 1][0] if mid > 0 else items[0][0]
        left_items = [(k, v) for k, v in items if k <= split_key]
        right_items = [(k, v) for k, v in items if k > split_key]
        pivot = split_key + 1
        old_sibling = full_view.replica_sibling(0)
        new_addr = yield from self._alloc(layout.total_size)
        # New (right) node first: not reachable until A points at it.
        right_image, right_word = self._compose_leaf(right_items,
                                                     sibling=old_sibling,
                                                     fence_low=pivot,
                                                     fence_high=fence_high,
                                                     nv=0)
        yield from self.qp.write_batch([
            (new_addr, right_image),
            (new_addr + layout.lock_offset,
             encode_u64(right_word) + encode_key(pivot)
             + encode_key(fence_high)),
        ])
        # Rewrite A: remaining items, sibling -> new node, NV bumped,
        # unlock + fences batched behind the node write.
        old_nv = full_view.span.nv_nibbles()[0]
        left_image, left_word = self._compose_leaf(left_items,
                                                   sibling=new_addr,
                                                   fence_low=fence_low,
                                                   fence_high=pivot,
                                                   nv=bump_nibble(old_nv))
        # The unlocking lock-line write also refreshes the fence keys; with
        # leases on, _unlock_writes appends the lease-clearing write (and
        # raises instead if our lease already expired mid-split).
        unlock = self._unlock_writes(lock_addr, left_word)
        unlock[0] = (lock_addr, encode_u64(left_word) + encode_key(fence_low)
                     + encode_key(pivot))
        guard.held = False  # the batched lock-line write below releases it
        yield from self.qp.write_batch(
            [(leaf_addr, left_image)] + unlock)
        for pos in range(layout.span):
            self.hotspots.invalidate(leaf_addr, pos)
        parent_hint = ref.parent if ref.parent is not None else None
        yield from self._propagate_split(parent_hint, 1, leaf_addr, pivot,
                                         new_addr)
        return OpResult(_RETRY)

    def _compose_leaf(self, items: Sequence[Tuple[int, int]], sibling: int,
                      fence_low: int, fence_high: int,
                      nv: int) -> Tuple[bytes, int]:
        """Build a full leaf image + its unlocked lock word locally."""
        keys, values, bitmaps, spilled = place_items(
            items, self.layout, self.home_of)
        if spilled:  # post-split load ~50%: must fit
            raise HashTableFullError(
                f"no feasible hop sequence for key {spilled[0][0]} in a "
                f"split half of {len(items)} items")
        image = self.layout.encode_image(keys, values, bitmaps, sibling,
                                         fence_low, fence_high, nv)
        return image, self.index.vacancy_map.lock_word(keys)

    # ---------------------------------------------------------------- scan

    def _scan_leaf(self, raw: bytes, key: int):
        """One leaf of :meth:`BTreeClientBase._scan_once`'s batch, through
        the whole-leaf shape: NV, EV and bitmap checks, then the pairs."""
        read = self.layout.full_shape().decode(
            memoryview(raw)[1:],  # the shape starts at the first payload byte
            self.home_of)
        return read.pairs(key), read.sibling

    # ---------------------------------------------------------------- shared plumbing

    def _range_replica_block(self, first: int, last: int) -> int:
        """The replica carried by a :meth:`LeafLayout.range_segments` read."""
        if not self.layout.replicated:
            return 0
        if first <= last:
            return self.layout.block_of(first)
        return 0  # wrapped reads start their head segment at block 0

    # ---------------------------------------------------------------- recovery

    def _repair_leaf(self, leaf_addr: int) -> Generator:
        """Reconcile a leaf orphaned by a crashed lock holder.

        Runs right after this client steals the leaf's expired lease
        (see :meth:`BTreeClientBase._lock_leased`), before the stolen
        metadata is trusted.  A crash cannot tear entry payloads — data
        and unlock ride one ordered write batch, so an interrupted op
        either fully landed or left the leaf untouched — but the
        piggybacked lock word (argmax + vacancy bitmap) and the hop
        bitmaps are rebuilt from the entries defensively.  Returns the
        fresh lock word so the stealer proceeds with repaired metadata.
        """
        layout = self.layout
        view = yield from self._fetch_whole(leaf_addr)
        modified = set()
        truth = reconstruct_bitmaps(view, self.index.home_of)
        for home, stored in enumerate(view.bitmaps()):
            if stored != truth[home]:
                view.set_entry_bitmap(home, truth[home])
                modified.add(home)
        word = self.index.vacancy_map.lock_word(view.keys())
        writes = self._entry_writes(leaf_addr, view, modified) if modified \
            else []
        writes.append((leaf_addr + layout.lock_offset, encode_u64(word)))
        yield from self.qp.write_batch(writes)
        for pos in range(layout.span):
            self.hotspots.invalidate(leaf_addr, pos)
        if BUS.active:
            BUS.emit("lock.repair", self.engine.now, leaf_addr=leaf_addr,
                     bitmaps_fixed=len(modified))
        return word
