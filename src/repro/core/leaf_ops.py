"""Shared hopscotch-leaf I/O for index clients.

Both CHIME (B+-tree routing) and CHIME-Learned (model routing, §5.3) read
and validate hopscotch leaf nodes the same way; this mixin hosts that
logic.  It is mixed into a :class:`~repro.core.family.FamilyClientBase`
(which provides ``ops``, ``engine``, ``retry`` and ``ctx``); the client
adds ``self.layout`` (a :class:`~repro.core.node_layout.LeafLayout`) and
``self.home_of(key)``.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Tuple

from repro.core.nodes import LeafNodeView
from repro.core.sync import (
    check_entry_evs,
    check_hopscotch_bitmap,
    check_nv_uniform,
    collect_leaf_nv,
)
from repro.errors import FaultInjectedError, TornReadError
from repro.layout import StripedSpan
from repro.layout.versions import SpanSet, raw_span


class HopscotchLeafOpsMixin:
    """Leaf fetch + three-level-check primitives."""

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
            data = yield from self.ops.read(*requests[0])
            span = StripedSpan(data, base=raw_offs[0])
            return LeafNodeView(self.layout, span)
        payloads = yield from self.ops.read_batch(requests)
        spans = [StripedSpan(data, base=raw_off)
                 for raw_off, data in zip(raw_offs, payloads)]
        return LeafNodeView(self.layout, SpanSet(spans))

    def _fetch_neighborhood_view(self, leaf_addr: int, home: int,
                                 extra_view=None) -> Generator:
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

    def _read_neighborhood_checked(self, leaf_addr: int,
                                   home: int) -> Generator:
        """Neighborhood read + the three-level optimistic checks."""
        layout = self.layout
        indices = [(home + o) % layout.span
                   for o in range(layout.neighborhood)]
        retry = self.retry.start(
            f"neighborhood {home} @ leaf {leaf_addr:#x}", self.engine,
            self.ctx.rng)
        while retry.check():
            try:
                view = yield from self._fetch_neighborhood_view(leaf_addr,
                                                                home)
                check_nv_uniform(collect_leaf_nv(view, indices))
                check_entry_evs(view, indices)
                check_hopscotch_bitmap(view, home, self.home_of)
                return view
            except (TornReadError, FaultInjectedError):
                self.ops.stats.retries += 1
                yield from retry.backoff()

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
