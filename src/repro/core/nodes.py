"""Typed views over node byte images.

A *view* wraps a :class:`~repro.layout.versions.StripedSpan` (full node or
partial fetch) plus its layout, and exposes field-level accessors.  Views
are used on both sides of the wire: clients parse fetched spans and
compose write-back payloads through them.  Whole hopscotch leaf images
(bulk load, split halves, synonym leaves) are not composed here but by
:meth:`~repro.core.node_layout.LeafLayout.encode_image` (its
entry-by-entry reference is ``tests/oracles.py``'s ``compose_leaf``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count
from typing import List, Optional, Sequence, Tuple

from repro.core.node_layout import LeafLayout, SortedNodeLayout
from repro.errors import LayoutError
from repro.layout import (
    StripedSpan,
    decode_key,
    decode_u16,
    decode_u64,
    decode_value,
    encode_key,
    encode_u64,
    encode_value,
    pack_version,
    unpack_version,
)
from repro.layout.image import packer_values, unpack_values
from repro.layout.versions import NV_OF_BYTE, bump_nibble
from repro.memory.region import NULL_ADDR


@dataclass
class ParsedInternal:
    """A decoded internal node (also the cache representation)."""

    addr: int
    level: int
    valid: bool
    count: int
    fence_low: int
    fence_high: int
    sibling: int
    pivots: List[int]
    children: List[int]
    #: Node-level version observed at parse time; the next writer bumps it.
    nv: int = 0

    def find_child(self, key: int) -> Tuple[int, int]:
        """(entry index, child address) whose pivot range covers *key*.

        Entries are sorted; returns the last entry with pivot <= key
        (the first, for a key below every pivot).
        """
        pos = max(bisect_right(self.pivots, key, 0, self.count) - 1, 0)
        return pos, self.children[pos]

    def next_child(self, index: int) -> Optional[int]:
        """Child pointer after *index* (used by sibling-based validation)."""
        if index + 1 < self.count:
            return self.children[index + 1]
        return None

    def covers(self, key: int) -> bool:
        return self.fence_low <= key < self.fence_high


class SortedNodeView:
    """Accessor over a sorted-array node's striped image: an internal
    node, or a sorted leaf of Sherman, Marlin or ROLEX."""

    def __init__(self, layout: SortedNodeLayout, span: StripedSpan) -> None:
        self.layout = layout
        self.span = span

    # -- composition ------------------------------------------------------------

    @classmethod
    def compose(
        cls,
        layout: SortedNodeLayout,
        items: Sequence[Tuple[int, int]],
        sibling: int,
        fence_low: int,
        fence_high: int,
        nv: int = 0,
        level: int = 0,
    ) -> "SortedNodeView":
        """A freshly written node holding the sorted *items*: every line,
        header and entry version byte is (*nv*, EV 0) — node-write
        semantics — and entries past the last item are empty.  *level*
        lands only in a layout with a level byte.  Composed by the
        layout's compiled encoder; the field-by-field way is its oracle
        (``tests/oracles.py``, ``compose_sorted_leaf``)."""
        spare = layout.span - len(items)
        if spare < 0:
            raise LayoutError(f"{len(items)} items do not fit a node of span {layout.span}")
        version = pack_version(nv, 0)
        keys = [key for key, _value in items]
        values = [value for _key, value in items]
        keys += [0] * spare
        values += [0] * spare
        image = layout._encoder.encode(
            [version, level, 1, len(items), sibling, *packer_values(values, layout.value_size)],
            [fence_low, fence_high, *keys],
            version,
        )
        return cls(layout, StripedSpan(image, 0))

    # -- field access -------------------------------------------------------------

    @property
    def count(self) -> int:
        return decode_u16(self.span.read_logical(self.layout.off_count, 2))

    @property
    def fence_low(self) -> int:
        layout = self.layout
        return decode_key(self.span.read_logical(layout.off_fence_low, layout.key_size))

    @property
    def fence_high(self) -> int:
        layout = self.layout
        return decode_key(self.span.read_logical(layout.off_fence_high, layout.key_size))

    @property
    def fences(self) -> Tuple[int, int]:
        return self.fence_low, self.fence_high

    @property
    def sibling(self) -> int:
        return decode_u64(self.span.read_logical(self.layout.off_sibling, 8))

    @property
    def nv(self) -> int:
        return self.span.read_logical(self.layout.OFF_VERSION, 1)[0] >> 4

    def entry(self, index: int) -> Tuple[int, int]:
        layout = self.layout
        data = self.span.read_logical(
            layout.entry_offset(index) + 1, layout.key_size + layout.value_size
        )
        return decode_key(data), decode_value(data, layout.key_size, size=layout.value_size)

    def find(self, key: int) -> Optional[int]:
        """Binary search the sorted keys; returns the index or None."""
        keys = self._keys(self.span.image_payload(self.layout.logical_size))
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return index
        return None

    def write_entry_value(self, index: int, key: int, value: int) -> Tuple[int, bytes]:
        """Fine-grained entry update: payload + EV bump in lockstep;
        returns the raw (offset, bytes) that write the entry back."""
        layout = self.layout
        off = layout.entry_offset(index)
        nv, ev = unpack_version(self.span.read_logical(off, 1)[0])
        self.span.write_logical(off, bytes([pack_version(nv, bump_nibble(ev))]))
        self.span.bump_entry_versions(off, layout.entry_size)
        self.span.write_logical(off + 1, encode_key(key) + encode_value(value, layout.value_size))
        return self.span.sub_span(off, layout.entry_size)

    # -- whole-node decode ---------------------------------------------------------
    #
    # Views wrap whole-node images (nodes are read whole), so every
    # entry is decoded from one de-striped payload by the layout's
    # column structs; ``entry`` is the per-entry reference.

    def _keys(self, payload: bytearray) -> Sequence[int]:
        return self.layout._image_keys.unpack(payload)[: self.count]

    def _columns(self) -> Tuple[Sequence[int], Sequence[int]]:
        """The keys and the values of the held entries, in key order."""
        layout = self.layout
        payload = self.span.image_payload(layout.logical_size)
        keys = self._keys(payload)
        values = unpack_values(layout._image_values, payload, layout.value_size)
        return keys, values[: len(keys)]

    def items(self) -> List[Tuple[int, int]]:
        """The (key, value) of every held entry, in key order."""
        return list(zip(*self._columns()))

    def parse(self, addr: int) -> ParsedInternal:
        """The node decoded as an internal one: its entries are
        ``(pivot, child)``, its level 0 where the layout stores none."""
        layout = self.layout
        pivots, children = self._columns()
        return ParsedInternal(
            addr=addr,
            level=self.span.read_logical(layout.OFF_LEVEL, 1)[0] if layout.level_byte else 0,
            valid=bool(self.span.read_logical(layout.off_valid, 1)[0]),
            count=len(pivots),
            fence_low=self.fence_low,
            fence_high=self.fence_high,
            sibling=self.sibling,
            pivots=list(pivots),
            children=list(children),
            nv=self.nv,
        )

    # -- consistency ---------------------------------------------------------------

    def nv_values(self) -> List[int]:
        """Every NV nibble in the image (line bytes + header + entries)."""
        layout = self.layout
        payload = self.span.read_logical(0, layout.logical_size)
        values = self.span.nv_nibbles()
        values.append(payload[layout.OFF_VERSION] >> 4)
        values.extend([payload[off] >> 4 for off in layout._entry_offsets])
        return values

    def is_consistent(self) -> bool:
        span = self.span
        if span.base != 0:
            return len(set(self.nv_values())) <= 1
        # Whole-image fast path, once per fetched node: every version
        # byte picked off the raw buffer and mapped to its NV in C.
        version_bytes = bytes(self.layout._image_versions(span.data))
        return len(set(version_bytes.translate(NV_OF_BYTE))) <= 1


# The hopscotch-leaf half predates the formatter; CI's check stops here.
# fmt: off

@dataclass(slots=True)
class LeafEntry:
    """One decoded leaf entry (key 0 means empty, keys are >= 1)."""

    index: int
    version_byte: int
    bitmap: int
    key: int
    value: int

    @property
    def occupied(self) -> bool:
        return self.key != 0


class LeafNodeView:
    """Accessor over a hopscotch leaf's striped image (full or partial)."""

    def __init__(self, layout: LeafLayout, span: StripedSpan) -> None:
        self.layout = layout
        self.span = span

    # -- composition -------------------------------------------------------------

    @classmethod
    def blank(cls, layout: LeafLayout, sibling: int = NULL_ADDR,
              fence_low: int = 0, fence_high: int = 0,
              nv: int = 0) -> "LeafNodeView":
        """A fresh empty leaf image with uniform versions and metadata."""
        view = cls(layout, StripedSpan.blank(layout.logical_size))
        sp = view.span
        sp.set_all_versions(nv, 0)
        byte = pack_version(nv, 0)
        for block in range(layout.num_blocks):
            view.write_replica(block, sibling, fence_low, fence_high)
        for index in range(layout.span):
            sp.write_logical(layout.entry_offset(index), bytes([byte]))
        return view

    def write_replica(self, block: int, sibling: int,
                      fence_low: int = 0, fence_high: int = 0) -> None:
        layout = self.layout
        off = layout.replica_offset(block)
        self.span.write_logical(off + layout.REPLICA_OFF_VALID, b"\x01")
        self.span.write_logical(off + layout.REPLICA_OFF_SIBLING,
                                encode_u64(sibling))
        if layout.fence_keys:
            self.span.write_logical(off + layout.replica_off_fence_low,
                                    encode_key(fence_low))
            self.span.write_logical(off + layout.replica_off_fence_high,
                                    encode_key(fence_high))

    # -- replica access ------------------------------------------------------------

    def replica_valid(self, block: int) -> bool:
        off = self.layout.replica_offset(block)
        return bool(self.span.read_logical(
            off + self.layout.REPLICA_OFF_VALID, 1)[0])

    def replica_sibling(self, block: int) -> int:
        off = self.layout.replica_offset(block)
        return decode_u64(self.span.read_logical(
            off + self.layout.REPLICA_OFF_SIBLING, 8))

    @property
    def sibling(self) -> int:
        """The sibling pointer, as the first replica carries it."""
        return self.replica_sibling(0)

    def replica_fences(self, block: int) -> Tuple[int, int]:
        layout = self.layout
        off = layout.replica_offset(block)
        low = decode_key(self.span.read_logical(
            off + layout.replica_off_fence_low, layout.key_size))
        high = decode_key(self.span.read_logical(
            off + layout.replica_off_fence_high, layout.key_size))
        return low, high

    # -- entry access ----------------------------------------------------------------

    def entry(self, index: int) -> LeafEntry:
        layout = self.layout
        data = self.span.read_logical(layout._entry_offsets[index],
                                      layout.entry_size)
        return self._parse_entry(index, data, layout)

    @staticmethod
    def _parse_entry(index: int, data: bytes,
                     layout: LeafLayout) -> LeafEntry:
        # Positional construction — keyword passing measurably slows the
        # hottest parse in the simulator.
        return LeafEntry(index, data[0],
                         layout.bitmap_codec.unpack_from(
                             data, layout.ENTRY_OFF_BITMAP)[0],
                         decode_key(data, layout.entry_off_key),
                         decode_value(data, layout.entry_off_value,
                                      size=layout.value_size))

    def entry_key(self, index: int) -> int:
        """Just the key of one entry (0 means empty) — no LeafEntry parse."""
        layout = self.layout
        return decode_key(self.span.read_logical(
            layout._entry_offsets[index] + layout.entry_off_key,
            layout.key_size))

    def entry_bitmap(self, index: int) -> int:
        """Just the hopscotch bitmap of one entry."""
        layout = self.layout
        return layout.bitmap_codec.unpack(self.span.read_logical(
            layout._entry_offsets[index] + layout.ENTRY_OFF_BITMAP,
            layout.bitmap_size))[0]

    def write_entry(self, index: int, key: int, value: int,
                    bitmap: Optional[int] = None,
                    bump_ev: bool = True) -> None:
        """Rewrite entry payload; bumps its EVs unless told otherwise."""
        layout = self.layout
        off = layout.entry_offset(index)
        if bitmap is None:
            bitmap = self.entry(index).bitmap
        if bump_ev:
            self.bump_entry_ev(index)
        payload = (layout.bitmap_codec.pack(bitmap) + encode_key(key)
                   + encode_value(value, layout.value_size))
        self.span.write_logical(off + layout.ENTRY_OFF_BITMAP, payload)

    def clear_entry(self, index: int, bump_ev: bool = True) -> None:
        """Empty the entry (key 0), preserving its hopscotch bitmap."""
        bitmap = self.entry(index).bitmap
        self.write_entry(index, 0, 0, bitmap=bitmap, bump_ev=bump_ev)

    def set_entry_bitmap(self, index: int, bitmap: int,
                         bump_ev: bool = True) -> None:
        layout = self.layout
        off = layout.entry_offset(index)
        if bump_ev:
            self.bump_entry_ev(index)
        self.span.write_logical(off + layout.ENTRY_OFF_BITMAP,
                                layout.bitmap_codec.pack(bitmap))

    def bump_entry_ev(self, index: int) -> None:
        """Increment every EV nibble inside the entry's span (version byte
        plus any covered line version bytes) in lockstep."""
        layout = self.layout
        off = layout.entry_offset(index)
        byte = self.span.read_logical(off, 1)[0]
        nv, ev = unpack_version(byte)
        self.span.write_logical(off, bytes([pack_version(nv, bump_nibble(ev))]))
        self.span.bump_entry_versions(off, layout.entry_size)

    # -- whole-node helpers -------------------------------------------------------------
    #
    # A view over one contiguous span decodes through the layout's
    # compiled image codec — a handful of C calls for the whole leaf.  A
    # segmented (``SpanSet`` wrap-around) fetch has no contiguous image,
    # so it answers through the per-entry accessors, which route every
    # field to its segment.

    def _image(self) -> Optional[bytearray]:
        """The de-striped payload of a contiguous whole-leaf image, or
        None for a segmented view; a contiguous span that does not hold
        the whole leaf raises :class:`LayoutError`."""
        span = self.span
        if type(span) is StripedSpan:
            return span.image_payload(self.layout.logical_size)
        return None

    def _column(self, codec, accessor) -> Sequence[int]:
        payload = self._image()
        if payload is None:
            return [accessor(i) for i in range(self.layout.span)]
        return codec.unpack(payload)

    def keys(self) -> Sequence[int]:
        """The key of every entry in position order (0 means empty)."""
        return self._column(self.layout._image_keys, self.entry_key)

    def bitmaps(self) -> Sequence[int]:
        """The stored hopscotch bitmap of every entry in position order."""
        return self._column(self.layout._image_bitmaps, self.entry_bitmap)

    def values(self) -> Sequence[int]:
        """The value of every entry in position order."""
        return self._keys_values()[1]

    def _keys_values(self) -> Tuple[Sequence[int], Sequence[int]]:
        layout = self.layout
        payload = self._image()
        if payload is None:
            entries = [self.entry(i) for i in range(layout.span)]
            return ([entry.key for entry in entries],
                    [entry.value for entry in entries])
        return layout._image_keys.unpack(payload), unpack_values(
            layout._image_values, payload, layout.value_size)

    def occupancy(self) -> List[bool]:
        """Per-entry occupancy of a full-node image."""
        return list(map(bool, self.keys()))

    def items(self) -> List[Tuple[int, int, int]]:
        """(position, key, value) of occupied entries in a full image."""
        keys, values = self._keys_values()
        return list(compress(zip(count(), keys, values), keys))

    def pairs(self, start: int = 1) -> List[Tuple[int, int]]:
        """(key, value) of occupied entries with key >= *start*, in
        position order (what scans and splits consume)."""
        start = max(start, 1)  # key 0 marks an empty entry
        keys, values = self._keys_values()
        return [(key, value) for key, value in zip(keys, values)
                if key >= start]

    def argmax_key(self) -> int:
        """Entry index holding the maximum key (0 when node is empty)."""
        keys = self.keys()
        return keys.index(max(keys))


def reconstruct_bitmaps(view: LeafNodeView, hash_home) -> List[int]:
    """status(keys) of every home entry at once, from a whole-leaf view
    (what a lock holder repairs a leaf's hopscotch bitmaps to)."""
    layout = view.layout
    span = layout.span
    bitmaps = [0] * span
    for pos, key in enumerate(view.keys()):
        if key:
            home = hash_home(key)
            offset = (pos - home) % span
            if offset < layout.neighborhood:
                bitmaps[home] |= 1 << offset
    return bitmaps
