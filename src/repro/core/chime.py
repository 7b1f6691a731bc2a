"""CHIME: the cache-efficient high-performance hybrid index (paper §4).

B+-tree internal nodes (shared machinery in
:mod:`repro.core.btree_base`) with hopscotch-hash leaf nodes, plus the
paper's three techniques:

* three-level optimistic synchronization — readers run the NV / EV /
  bitmap checks of their compiled
  :class:`~repro.core.node_layout.ReadShape` and retry on torn states
  (under ``sync_mode`` pessimistic/adaptive, writers instead acquire
  the leaf through the CIDER-style ticket queue of
  :mod:`repro.core.adaptive`; the locked sections here are
  mode-agnostic — :meth:`FamilyClientBase._locked` and ``_release``
  route to the queued path internally);
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
from repro.core.family import LockGuard
from repro.core.hotspot import HotspotBuffer
from repro.core.leaf_ops import HopscotchLeafOpsMixin, slot_columns
from repro.core.node_layout import (
    LeafLayout,
    VacancyBitmap,
    unpack_lock_word,
)
from repro.core.nodes import LeafNodeView, reconstruct_bitmaps
from repro.errors import IndexError_, TornReadError
from repro.hashing.hopscotch import (
    distance,
    find_first_empty,
    home_hash,
    place_run,
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


class ChimeIndex(BTreeIndexBase):
    """Host-side state of one CHIME tree."""

    leaf_view = LeafNodeView

    def __init__(self, cluster: Cluster, config: Optional[ChimeConfig] = None) -> None:
        super().__init__(cluster, config or ChimeConfig())
        entry_value_size = 8 if self.config.indirect_values else self.config.value_size
        self.leaf_layout = LeafLayout(
            span=self.config.span,
            neighborhood=self.config.neighborhood,
            value_size=entry_value_size,
            replicated=self.config.metadata_replication,
            fence_keys=not self.config.sibling_validation,
        )
        self.vacancy_map = VacancyBitmap(self.config.span)
        #: A key's home entry in a leaf (shared with clients).
        self.home_of = home_hash(self.config.span)
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

    # -- bulk load (host-side, off the simulated data path) --------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Populate the tree from sorted, unique (key, value) pairs.

        Leaves are filled to ``config.bulk_load_factor`` of their span
        via local hopscotch placement; internal levels are packed full.
        """
        config = self.config
        layout = self.leaf_layout
        pairs = self._checked_pairs(pairs)
        keys, values = pairs.key_column, pairs.value_column
        span, neighborhood = config.span, config.neighborhood
        target = max(1, int(span * config.bulk_load_factor))
        # Each leaf takes one run of keys: at most *target*, up to the
        # first one it has no room for.  Until every leaf address is
        # known (leaves are allocated before any indirect block), a leaf
        # keeps only where its run starts plus its slot and bitmap
        # vectors, packed.  A slot is the pair's index in the run + 1.
        starts: List[int] = [0]
        vectors: List[Tuple[array, array]] = []
        while True:
            start = starts[-1]
            slots, homes, bitmaps = [0] * span, [0] * span, [0] * span
            starts.append(start + place_run(
                slots, homes, bitmaps, keys[start:start + target],
                neighborhood))
            vectors.append((array("H", slots), array("H", bitmaps)))
            if starts[-1] >= len(pairs):
                break
        # Every leaf image lands in its MN's share of one run.
        addrs, runs = self._host_alloc_run(layout.total_size, len(vectors))
        images = [bytearray(layout.total_size * len(addrs[share]))
                  for _mn, _base, share in runs]
        # Fence boundaries: first key of each leaf.
        bounds = [0] + [keys[start] for start in starts[1:-1]] + [MAX_KEY]
        for index, (slots, bitmaps) in enumerate(vectors):
            sibling = addrs[index + 1] if index + 1 < len(addrs) else NULL_ADDR
            fence_low, fence_high = bounds[index], bounds[index + 1]
            run = slice(starts[index], starts[index + 1])
            leaf_keys, leaf_values = slot_columns(keys[run], values[run], slots)
            if config.indirect_values:
                blocks = iter(self._host_alloc_blocks(
                    list(compress(leaf_keys, leaf_keys)),
                    list(compress(leaf_values, leaf_keys))))
                leaf_values = [next(blocks) if key else 0 for key in leaf_keys]
            image = layout.encode_image(leaf_keys, leaf_values, bitmaps, sibling,
                                        fence_low, fence_high)
            lock_line = (encode_u64(self.vacancy_map.lock_word(leaf_keys))
                         + encode_key(fence_low) + encode_key(fence_high))
            at, lane = divmod(index, len(runs))
            at *= layout.total_size
            lane_image = images[lane]
            lane_image[at:at + len(image)] = image
            at += layout.lock_offset
            lane_image[at:at + len(lock_line)] = lock_line
        for (mn, base, _share), image in zip(runs, images):
            mn.mem_write(base, image)
        self.loaded_items = len(pairs)
        self._build_internal_levels(list(zip(bounds, addrs)))

    # -- host-side verification helpers -----------------------------------------------

    def collect_items(self) -> List[Tuple[int, int]]:
        """All (key, value) pairs, key-ordered, read host-side (tests)."""
        out: List[Tuple[int, int]] = []
        for _addr, view in self.leaf_chain():
            for key, value in view.pairs():
                if self.config.indirect_values:
                    value = self._host_read_block(value)[1]
                out.append((key, value))
        out.sort()
        return out

    def average_leaf_load(self) -> float:
        """Mean leaf occupancy (memory-efficiency metric, Fig. 19)."""
        loads = [sum(view.occupancy()) for _addr, view in self.leaf_chain()]
        return sum(loads) / (len(loads) * self.leaf_layout.span) if loads \
            else 0.0


class ChimeClient(BTreeClientBase, HopscotchLeafOpsMixin):
    """One client's view of a CHIME tree: the §4.4 operations.

    The public operations are the family-base templates (RDWC, *op
    span*) over the ``_search/_insert/_update/_delete`` generators below
    and the shared scan, whose remote-access stages run in *phase spans*
    (traverse → leaf read → speculative read → lock → write-back → split
    → retry backoff), so a trace shows where each operation's round
    trips go.  With no bus subscriber the wrappers pass generators
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
            ref = yield from self._phase("traverse", self._locate_leaf(key))
            result = yield from self._phase("leaf_read",
                                            self._search_leaf(ref, key))
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
            dropped = self._drop_stale(
                ref.trusted, self._stale_route(ref, key, sibling))
            hit = read.find(key)
            if hit is not None:
                position, value = hit
                self.hotspots.record_access(leaf_addr, position, key)
                return OpResult(_DONE, found=True, value=value)
            # Not found: half-split validation (§4.2.3).
            if dropped:
                return OpResult(_RETRAVERSE)
            chase = yield from self._chase_to(ref, leaf_addr, key, sibling)
            if not chase:
                return OpResult(_DONE, found=False)
            leaf_addr = sibling
        return OpResult(_RETRAVERSE)  # MAX_CHASE leaves on: start afresh

    def _chase_to(self, ref: LeafRef, leaf_addr: int, key: int,
                  sibling: int) -> Generator:
        """Whether a miss in the leaf at *leaf_addr* goes on to its
        *sibling* (§4.2.3): while that is not the parent's next child;
        past a *last* child, from the second leaf on, while the leaf's high
        fence key (lock line: one small READ) says *key* is further right."""
        expected = ref.parent.next_child(ref.parent_index)
        if sibling in (NULL_ADDR, expected):
            return False
        if expected is not None or leaf_addr == ref.leaf_addr:
            return True
        data = yield from self.qp.read(
            leaf_addr + self.layout.lock_offset + LOCKLINE_FENCE_HIGH, 8)
        past = self._stale_route(ref, key, sibling, (0, decode_key(data)))
        self._drop_stale(ref.trusted, past)
        return past

    def _speculative_read(self, leaf_addr: int, record, key: int) -> Generator:
        shape = self.layout.entry_shape(record.key_index)
        raw = yield from self._fetch_shape(leaf_addr, shape)
        try:
            hit = shape.decode(raw).find(key)
        except TornReadError:
            self.qp.stats.retries += 1  # torn speculation: fall back
            return None
        self.hotspots.speculated(hit is not None, self.engine.now, leaf_addr)
        if hit is None:
            return None
        self.hotspots.record_access(leaf_addr, record.key_index, key)
        return hit[1]

    # ---------------------------------------------------------------- writes

    def _update(self, key: int, value: int) -> Generator:
        return self._leaf_write("update({})", self._write_entry_locked, key,
                                value, False)

    def _delete(self, key: int) -> Generator:
        return self._leaf_write("delete({})", self._write_entry_locked, key,
                                0, True)

    def _insert(self, key: int, value: int) -> Generator:
        return self._leaf_write("insert({})", self._insert_locked, key,
                                value, backoff=True)

    def _leaf_write(self, what: str, locked, key: int, *args,
                    backoff: bool = False) -> Generator:
        """One write: traverse to *key*'s leaf and run ``locked(guard,
        ref, leaf_addr, key, *args)`` under its lock (:meth:`_locked_chase`)
        until that answers done; a re-traversal is retried under the retry
        policy (an insert backs off in between)."""
        retry = self.retry.start(what, self.engine, self.ctx.rng, key)
        while retry.check():
            ref = yield from self._phase("traverse", self._locate_leaf(key))
            result = yield from self._phase(
                "leaf_write", self._locked_chase(ref, locked, key, *args))
            if result.status == _DONE:
                return result.found
            if backoff:
                yield from self._sleep_phase("retry_backoff",
                                             retry.next_delay(cap=4))

    def _locked_chase(self, ref: LeafRef, locked, *args) -> Generator:
        """Run ``locked(guard, ref, leaf_addr, *args)`` under the lock of
        the leaf *ref* names (:meth:`_locked`), again on the sibling each
        time it answers ``"chase"``; whatever else it answers is the result."""
        leaf_addr = ref.leaf_addr
        for _hop in range(MAX_CHASE):
            result = yield from self._locked(
                leaf_addr + self.layout.lock_offset, locked, ref, leaf_addr,
                *args, phase="lock", piggyback=not self.config.cxl_atomics,
                repair=lambda addr=leaf_addr: self._repair_leaf(addr))
            if result.status != "chase":
                return result
            leaf_addr = result.value
        return OpResult(_RETRAVERSE)  # MAX_CHASE leaves on: start afresh

    def _write_entry_locked(self, guard: LockGuard, ref: LeafRef,
                            leaf_addr: int, key: int, value: int,
                            delete: bool) -> Generator:
        """Update / delete under the leaf lock: locate the entry, write."""
        layout = self.layout
        home = self.home_of(key)
        view, position, _spec_hit = yield from self._locate_entry_locked(
            leaf_addr, home, key, allow_speculative=not delete)
        if position is None:
            sibling = view.replica_sibling(
                layout.neighborhood_replica_block(home))
            chase = yield from self._chase_to(ref, leaf_addr, key, sibling)
            yield from self._release(guard)
            if self._drop_stale(ref.trusted,
                                self._stale_route(ref, key, sibling)):
                return OpResult(_RETRAVERSE)
            if chase:
                return OpResult("chase", value=sibling)
            return OpResult(_DONE, found=False)
        argmax, vacancy = guard.argmax, guard.vacancy
        if delete:
            self._remove_entry(view, home, position)
            writes = self._entry_writes(leaf_addr, view, {position, home})
            vacancy &= ~(1 << self.index.vacancy_map.bit_of(position))
            if position == argmax:
                argmax = yield from self._recompute_argmax(leaf_addr)
            self.hotspots.invalidate(leaf_addr, position)
        else:
            stored = yield from self._stored(key, value)
            view.write_entry(position, key, stored)
            writes = self._entry_writes(leaf_addr, view, {position})
            self.hotspots.record_access(leaf_addr, position, key)
        yield from self._release(guard, writes, argmax, vacancy)
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
                hit = entry.occupied and entry.key == key
                self.hotspots.speculated(hit, self.engine.now, leaf_addr)
                if hit:
                    return view, record.key_index, True
        view = yield from self._fetch_neighborhood_view(leaf_addr, home)
        position = self._find_in_neighborhood(view, home, key)
        return view, position, False

    def _recompute_argmax(self, leaf_addr: int) -> Generator:
        """Full-node read to re-locate the maximum key (rare: deletes of
        the current maximum)."""
        view = yield from self._fetch_whole(leaf_addr)
        return view.argmax_key()

    # ---------------------------------------------------------------- insert

    def _insert_locked(self, guard: LockGuard, ref: LeafRef, leaf_addr: int,
                       key: int, value: int) -> Generator:
        """The core insert flow, owning the remote lock.

        Every return path below releases the remote lock through
        :meth:`_release`, batched with the data write or alone.
        """
        layout = self.layout
        config = self.config
        vmap = self.index.vacancy_map
        home = self.home_of(key)
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
        mismatch = self._stale_route(ref, key, sibling)
        past = key >= fence_high and sibling != NULL_ADDR
        self._drop_stale(ref.trusted, self._stale_route(
            ref, key, sibling, (fence_low, fence_high)))
        # Routing: the paper's argmax mechanism for detected half-splits;
        # the lock-line fence keys for the unknown-reference case.
        if mismatch and max_entry is not None and key > max_entry or past:
            yield from self._release(guard)
            return OpResult("chase", value=sibling)
        if key < fence_low:
            yield from self._release(guard)
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
        # Plan the hop sequence over the fetched entries; split without.
        plan = empty is not None and plan_insert(
            home, empty, layout.span, layout.neighborhood,
            self._make_home_of(view))
        if not plan:
            result = yield from self._phase("split", self._split_leaf(
                guard, ref, leaf_addr, view if full_read else None,
                fence_low, fence_high))
            return result
        if self._plan_needs_extension(plan, home, empty):
            view = yield from self._fetch_whole(leaf_addr)
            full_read = True
        if BUS.active:
            BUS.emit("hopscotch.displacement", self.engine.now,
                     moves=len(plan.moves), leaf_addr=leaf_addr)
        # Apply the plan to the local buffer.
        stored = yield from self._stored(key, value)
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
        yield from self._release(
            guard, self._entry_writes(leaf_addr, view, modified), argmax,
            vacancy)
        self.hotspots.record_access(leaf_addr, plan.target, key)
        return OpResult(_DONE, found=True)

    def _handle_duplicate(self, guard: LockGuard, view: LeafNodeView,
                          leaf_addr: int, position: int, key: int,
                          value: int, argmax: int,
                          vacancy: int) -> Generator:
        """Insert hit an existing key: overwrite it (upsert)."""
        stored = yield from self._stored(key, value)
        view.write_entry(position, key, stored)
        yield from self._release(
            guard, self._entry_writes(leaf_addr, view, {position}), argmax,
            vacancy)
        return OpResult(_DONE, found=True)

    def _insert_read(self, leaf_addr: int, home: int, last: int,
                     argmax: int) -> Generator:
        """The insert's doorbell-batched READ: hop-range segments, the
        lock-line fence keys, and the argmax entry (when outside the
        range) — one round trip."""
        layout = self.layout
        segments = layout.range_segments(home, last)
        at, size = layout.entry_offset(argmax), layout.entry_size
        if not any(off <= at and at + size <= off + length
                   for off, length in segments):  # not read with the range
            segments.append((at, size))
        raws = [raw_span(off, length) for off, length in segments]
        fence_addr = leaf_addr + layout.lock_offset + LOCKLINE_FENCE_LOW
        payloads = yield from self.qp.read_batch(
            [(leaf_addr + raw_off, raw_len) for raw_off, raw_len in raws]
            + [(fence_addr, LOCKLINE_FENCES_LEN)])
        view = LeafNodeView(layout, SpanSet([
            StripedSpan(data, base=raw_off)
            for (raw_off, _raw_len), data in zip(raws, payloads)]))
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
            view = self._merge_header(view, header)
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

    # ---------------------------------------------------------------- split

    def _split_leaf(self, guard: LockGuard, ref: LeafRef, leaf_addr: int,
                    full_view: Optional[LeafNodeView], fence_low: int,
                    fence_high: int) -> Generator:
        """Split the locked leaf; returns RETRY so the insert re-runs."""
        layout = self.layout
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
        # New (right) node first: not reachable until A points at it.
        new_addr = yield from self._write_fresh_leaf(
            right_items, full_view.replica_sibling(0), pivot, fence_high)
        # Rewrite A: remaining items, sibling -> new node, NV bumped,
        # unlock + fences batched behind the node write.
        old_nv = full_view.span.nv_nibbles()[0]
        left_image, left_word = self._compose_leaf(left_items,
                                                   sibling=new_addr,
                                                   fence_low=fence_low,
                                                   fence_high=pivot,
                                                   nv=bump_nibble(old_nv))
        # The unlocking lock-line write also refreshes the fence keys (and
        # raises instead if our lease already expired mid-split).
        _bit, argmax, vacancy = unpack_lock_word(left_word)
        yield from self._release(guard, [(leaf_addr, left_image)], argmax,
                                 vacancy, encode_key(fence_low)
                                 + encode_key(pivot))
        for pos in range(layout.span):
            self.hotspots.invalidate(leaf_addr, pos)
        yield from self._propagate_split(ref.parent, 1, leaf_addr, pivot,
                                         new_addr)
        return OpResult(_RETRY)

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
        (see :meth:`FamilyClientBase._lock_leased`), before the stolen
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
