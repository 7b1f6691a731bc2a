"""Shared hopscotch-leaf I/O for index clients.

Both CHIME (B+-tree routing) and CHIME-Learned (model routing, §5.3) read
and validate hopscotch leaf nodes the same way; this mixin hosts that
logic.  It is mixed into a :class:`~repro.core.family.FamilyClientBase`
(which provides ``qp``, ``engine``, ``retry`` and ``ctx``); the client
adds ``self.layout`` (a :class:`~repro.core.node_layout.LeafLayout`) and
``self.home_of(key)``.

Both also fill whole leaves the same way — bulk load, split halves,
synonym leaves: :func:`place_items` / :func:`slot_columns` turn items
into the position-ordered vectors ``LeafLayout.encode_image`` takes.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.core.node_layout import LeafLayout, ReadShape
from repro.core.nodes import LeafNodeView
from repro.errors import FaultInjectedError, TornReadError
from repro.hashing.hopscotch import distance, place_fresh
from repro.layout import StripedSpan
from repro.layout.versions import SpanSet, raw_span


def slot_columns(items: Sequence[Tuple[int, int]],
                 slots: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Position-ordered key and value vectors of a leaf whose position
    ``pos`` holds ``items[slots[pos] - 1]`` (slot 0: an empty entry,
    key 0 and value 0) — what :meth:`LeafLayout.encode_image` takes."""
    keys, values = zip((0, 0), *items)
    return [keys[slot] for slot in slots], [values[slot] for slot in slots]


def place_items(items: Sequence[Tuple[int, int]], layout: LeafLayout,
                home_of: Callable[[int], int]
                ) -> Tuple[List[int], List[int], List[int],
                           List[Tuple[int, int]]]:
    """Hopscotch-place fresh (key, value) *items* into an empty leaf, in
    order: ``(keys, values, bitmaps, spilled)`` — the leaf's
    position-ordered vectors, and the items that did not fit."""
    span = layout.span
    slots, homes, bitmaps = [0] * span, [0] * span, [0] * span
    spilled = [
        item for number, item in enumerate(items, 1)
        if not place_fresh(slots, homes, bitmaps, home_of(item[0]),
                           layout.neighborhood, number)]
    keys, values = slot_columns(items, slots)
    return keys, values, bitmaps, spilled


class HopscotchLeafOpsMixin:
    """Leaf fetch + three-level-check primitives.

    Lock-free reads (a neighbourhood, one speculative entry) go through
    the layout's compiled :class:`~repro.core.node_layout.ReadShape` and
    yield a read-only decoded result; reads under the leaf lock fetch a
    mutable :class:`LeafNodeView` that the writer edits and writes back.
    """

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
            except (TornReadError, FaultInjectedError):
                self.qp.stats.retries += 1
                yield from retry.backoff()

    # -- reads under the leaf lock --------------------------------------------------

    def _fetch_leaf(self, leaf_addr: int,
                    segments: Sequence[Tuple[int, int]]) -> Generator:
        """READ logical segments of a leaf; single READ or doorbell batch."""
        requests = []
        raw_offs = []
        for off, length in segments:
            raw_off, raw_len = raw_span(off, length)
            raw_offs.append(raw_off)
            requests.append((leaf_addr + raw_off, raw_len))
        if len(requests) == 1:
            data = yield from self.qp.read(*requests[0])
            span = StripedSpan(data, base=raw_offs[0])
            return LeafNodeView(self.layout, span)
        payloads = yield from self.qp.read_batch(requests)
        spans = [StripedSpan(data, base=raw_off)
                 for raw_off, data in zip(raw_offs, payloads)]
        return LeafNodeView(self.layout, SpanSet(spans))

    def _fetch_whole(self, leaf_addr: int) -> Generator:
        """READ the entire leaf (splits, repairs, extended hop ranges)."""
        return self._fetch_leaf(leaf_addr, [self.layout.full_span()])

    def _fetch_neighborhood_view(self, leaf_addr: int,
                                 home: int) -> Generator:
        """Neighborhood read; a dedicated header READ precedes it when
        metadata replication is disabled (the §3.2.2 extra access)."""
        layout = self.layout
        if not layout.replicated:
            header = yield from self._fetch_leaf(leaf_addr,
                                                 [(0, layout.replica_size)])
            view = yield from self._fetch_leaf(
                leaf_addr, layout.neighborhood_segments(home))
            header_spans = (header.span.spans
                            if isinstance(header.span, SpanSet)
                            else [header.span])
            if isinstance(view.span, SpanSet):
                view.span.spans.extend(header_spans)
                view.span.spans.sort(key=lambda s: s.base)
            else:
                view = LeafNodeView(layout,
                                    SpanSet([view.span] + header_spans))
            return view
        view = yield from self._fetch_leaf(
            leaf_addr, layout.neighborhood_segments(home))
        return view

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
