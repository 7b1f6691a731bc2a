"""Leaf I/O per leaf *format*, whatever routes a client to the leaf.

The hopscotch leaf serves CHIME and CHIME-Learned (§5.3), the sorted
array Sherman, Marlin and ROLEX, each format's code in one mixin for a
:class:`~repro.core.family.FamilyClientBase` whose ``self.layout`` is
the format's.  Each supplies the scan decoder ``_scan_leaf(raw, key,
plan) -> (pairs >= key, checked read with sibling and fences)`` and
says whether a scan ``reads_candidates``: reads a leaf, where it can,
by ``_candidate_read(first, end, low, high)`` (the hopscotch leaf's);
a routing base has none to shadow them.  :func:`place_items` /
:func:`slot_columns` fill whole hopscotch leaves (bulk load, split
halves, synonym leaves).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.core.node_layout import CandidateRead, LeafLayout, ReadShape
from repro.core.nodes import LeafNodeView, SortedNodeView
from repro.errors import HashTableFullError, LayoutError, TornReadError
from repro.hashing.hopscotch import distance, place_run
from repro.layout import StripedSpan, encode_key, encode_u64
from repro.layout.image import tuple_getter
from repro.layout.versions import SpanSet, raw_span


def slot_columns(keys: Sequence[int], values: Sequence[int],
                 slots: Sequence[int]) -> Tuple[Sequence[int], Sequence[int]]:
    """Position-ordered key and value vectors of a leaf whose position
    ``pos`` holds item ``slots[pos] - 1`` of the *keys* / *values*
    columns (slot 0: an empty entry, key 0 and value 0) — what
    :meth:`LeafLayout.encode_image` takes."""
    gather = tuple_getter(slots)
    return gather((0, *keys)), gather((0, *values))


def place_items(items: Sequence[Tuple[int, int]], layout: LeafLayout
                ) -> Tuple[Sequence[int], Sequence[int], List[int],
                           List[Tuple[int, int]]]:
    """Hopscotch-place fresh (key, value) *items* into an empty leaf, in
    order: ``(keys, values, bitmaps, spilled)`` — the leaf's
    position-ordered vectors, and the items that did not fit (each
    skipped, the ones after it still placed)."""
    span = layout.span
    slots, homes, bitmaps = [0] * span, [0] * span, [0] * span
    keys = [key for key, _value in items]
    spilled: List[Tuple[int, int]] = []
    placed = 0
    while placed < len(items):
        placed += place_run(slots, homes, bitmaps, keys[placed:],
                            layout.neighborhood, placed + 1)
        if placed < len(items):
            spilled.append(items[placed])
            placed += 1
    keys, values = slot_columns(keys, [value for _key, value in items], slots)
    return keys, values, bitmaps, spilled


class SortedLeafOpsMixin:
    """The sorted-array leaf (Sherman's leaves, ROLEX's tables)."""

    reads_candidates = False  # a scan reads every sorted leaf whole

    def _scan_leaf(self, raw: bytes, key: int, plan: None = None):
        """One whole leaf of a scan batch: the node-level check, then
        the pairs >= *key* and the view."""
        view = SortedNodeView(self.layout, StripedSpan(raw, 0))
        if not view.is_consistent():
            raise TornReadError("leaf node-level versions disagree")
        return [pair for pair in view.items() if pair[0] >= key], view


class HopscotchLeafOpsMixin:
    """Leaf fetch + three-level-check primitives, and the write-back.

    Lock-free reads (a neighbourhood, one speculative entry, a scan's
    leaf) go through the layout's compiled :class:`ReadShape` and yield
    a read-only decoded result; reads under the leaf lock fetch a
    mutable :class:`LeafNodeView` that the writer edits and writes back.
    The client adds ``self.home_of(key)``.
    """

    reads_candidates = True  # see ``BTreeClientBase._scan_batch``

    def _scan_leaf(self, raw: bytes, key: int,
                   plan: Optional[CandidateRead] = None):
        """One leaf of a scan batch, read whole or as *plan*
        (:meth:`_candidate_read`): NV, EV and bitmap checks, then the
        pairs >= *key* (and below the plan's end) and the read."""
        if plan is None:  # the shape starts at the first payload byte
            read = self.layout.full_shape().decode(memoryview(raw)[1:],
                                                   self.home_of)
            return read.pairs(key), read
        read, end = plan.decode(raw, self.home_of), plan.end
        return [pair for pair in read.pairs(key) if pair[0] < end], read

    def _candidate_read(self, first: int, end: int, low: int,
                        high: int) -> Optional[CandidateRead]:
        return self.layout.candidate_read(first, end, low, high,
                                          self.home_of)

    # -- lock-free reads ----------------------------------------------------------

    def _fetch_shape(self, leaf_addr: int, shape: ReadShape) -> Generator:
        """Issue a shape's READs — one round trip per round, a single
        READ or a doorbell batch; returns the payloads concatenated."""
        parts = []
        for requests in shape.rounds:
            if len(requests) == 1:
                (raw_off, raw_len), = requests
                data = yield from self.qp.read(leaf_addr + raw_off, raw_len)
                parts.append(data)
            else:
                parts += yield from self.qp.read_batch(
                    [(leaf_addr + raw_off, raw_len)
                     for raw_off, raw_len in requests])
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _read_neighborhood_checked(self, leaf_addr: int,
                                   home: int) -> Generator:
        """Neighborhood read + the three-level optimistic checks."""
        shape = self.layout.neighborhood_shape(home)
        retry = self.retry.start("neighborhood {} @ leaf {:#x}", self.engine,
                                 self.ctx.rng, home, leaf_addr)
        while retry.check():
            try:
                raw = yield from self._fetch_shape(leaf_addr, shape)
                return shape.decode(raw, self.home_of)
            except TornReadError:
                self.qp.stats.retries += 1
                yield from retry.backoff()

    # -- reads under the leaf lock --------------------------------------------------

    def _fetch_leaf(self, leaf_addr: int,
                    segments: Sequence[Tuple[int, int]]) -> Generator:
        """READ logical segments of a leaf; single READ or doorbell batch."""
        raws = [raw_span(off, length) for off, length in segments]
        if len(raws) == 1:
            (raw_off, raw_len), = raws
            data = yield from self.qp.read(leaf_addr + raw_off, raw_len)
            return LeafNodeView(self.layout, StripedSpan(data, base=raw_off))
        payloads = yield from self.qp.read_batch(
            [(leaf_addr + raw_off, raw_len) for raw_off, raw_len in raws])
        return LeafNodeView(self.layout, SpanSet([
            StripedSpan(data, base=raw_off)
            for (raw_off, _raw_len), data in zip(raws, payloads)]))

    def _fetch_whole(self, leaf_addr: int) -> Generator:
        """READ the entire leaf (splits, repairs, extended hop ranges)."""
        return self._fetch_leaf(leaf_addr, [(0, self.layout.logical_size)])

    def _fetch_neighborhood_view(self, leaf_addr: int,
                                 home: int) -> Generator:
        """Neighborhood read; a dedicated header READ precedes it when
        metadata replication is disabled (the §3.2.2 extra access)."""
        layout = self.layout
        header = None
        if not layout.replicated:
            header = yield from self._fetch_leaf(leaf_addr,
                                                 [(0, layout.replica_size)])
        view = yield from self._fetch_leaf(
            leaf_addr, layout.neighborhood_segments(home))
        return view if header is None else self._merge_header(view, header)

    def _merge_header(self, view: LeafNodeView,
                      header: LeafNodeView) -> LeafNodeView:
        """*view* plus the one span of a dedicated header READ (the
        §3.2.2 extra access when metadata is not replicated).  A
        multi-segment view takes it in place, unchecked: a hop range
        from entry 0 covers the header too, and its earlier bytes keep
        serving both."""
        if isinstance(view.span, SpanSet):
            view.span.spans.append(header.span)
            view.span.spans.sort(key=lambda s: s.base)
            return view
        return LeafNodeView(self.layout, SpanSet([view.span, header.span]))

    def _find_in_neighborhood(self, view: LeafNodeView, home: int,
                              key: int) -> Optional[int]:
        """Locate *key* among the entries flagged by the home bitmap."""
        layout = self.layout
        bitmap = view.entry_bitmap(home)
        span = layout.span
        for offset in range(layout.neighborhood):
            if bitmap & (1 << offset):
                pos = (home + offset) % span
                if view.entry_key(pos) == key:
                    return pos
        return None

    def _remove_entry(self, view: LeafNodeView, home: int,
                      position: int) -> None:
        """Empty the entry at *position* and clear its bit in the
        bitmap of its key's *home*, on the local buffer."""
        view.clear_entry(position)
        offset = distance(home, position, self.layout.span)
        view.set_entry_bitmap(home, view.entry(home).bitmap & ~(1 << offset))

    def _make_home_of(self, view: LeafNodeView):
        """``plan_insert``'s view of the leaf: the home of the key at a
        position, None for an empty one."""
        def home_of(pos: int) -> Optional[int]:
            entry = view.entry(pos)
            if not entry.occupied:
                return None
            return self.home_of(entry.key)
        return home_of

    def _apply_plan(self, view: LeafNodeView, plan, home: int, key: int,
                    stored_value: int) -> set:
        """Execute hop moves + placement on the local buffer; returns the
        set of modified entry positions."""
        layout = self.layout
        span = layout.span
        modified = set()
        for src, dst in plan.moves:
            entry = view.entry(src)
            src_home = self.home_of(entry.key)
            view.write_entry(dst, entry.key, entry.value)
            view.clear_entry(src)
            bitmap = view.entry(src_home).bitmap
            bitmap &= ~(1 << distance(src_home, src, span))
            bitmap |= 1 << distance(src_home, dst, span)
            view.set_entry_bitmap(src_home, bitmap)
            modified.update((src, dst, src_home))
        view.write_entry(plan.target, key, stored_value)
        home_bitmap = view.entry(home).bitmap
        home_bitmap |= 1 << distance(home, plan.target, span)
        view.set_entry_bitmap(home, home_bitmap)
        modified.update((plan.target, home))
        return modified

    def _compose_leaf(self, items: Sequence[Tuple[int, int]], sibling: int,
                      fence_low: int, fence_high: int,
                      nv: int = 0) -> Tuple[bytes, int]:
        """Build a full leaf image + its unlocked lock word locally."""
        keys, values, bitmaps, spilled = place_items(items, self.layout)
        if spilled:  # post-split load ~50%: must fit
            raise HashTableFullError(
                f"no feasible hop sequence for key {spilled[0][0]} in a "
                f"split half of {len(items)} items")
        image = self.layout.encode_image(keys, values, bitmaps, sibling,
                                         fence_low, fence_high, nv)
        return image, self.index.vacancy_map.lock_word(keys)

    def _write_fresh_leaf(self, items: Sequence[Tuple[int, int]], sibling: int,
                          fence_low: int, fence_high: int) -> Generator:
        """Allocate a leaf and WRITE it holding *items*, its lock line
        (vacancy word, fence keys) behind it in one batch; returns the
        address for the caller to publish."""
        layout = self.layout
        addr = yield from self._alloc(layout.total_size)
        image, word = self._compose_leaf(items, sibling, fence_low, fence_high)
        yield from self.qp.write_batch([
            (addr, image),
            (addr + layout.lock_offset,
             encode_u64(word) + encode_key(fence_low) + encode_key(fence_high)),
        ])
        return addr

    def _entry_writes(self, leaf_addr: int, view: LeafNodeView,
                      positions: set) -> List[Tuple[int, bytes]]:
        """Write-back payloads: one raw sub-span per modified entry, with
        adjacent entries coalesced into single WRITEs."""
        layout = self.layout
        groups: List[List[int]] = []
        for pos in sorted(positions):
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
