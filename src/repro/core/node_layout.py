"""Byte layouts of sorted-array nodes and CHIME's hopscotch leaf nodes.

All offsets here are *logical* (payload) coordinates of a striped region
(see :mod:`repro.layout.versions`); the raw on-MN image interleaves
cache-line version bytes.  Each node also owns one trailing 64-byte cache
line holding its 8-byte lock word, placed *outside* the striped region so
atomics never race with version bytes (a small layout deviation from the
paper's Figure 6, which draws the lock inside the node; behaviourally
equivalent because the lock is only accessed via atomics and the unlock
WRITE).

Leaf layout with metadata replication (paper Figure 10)::

    block 0: [replica][entry 0] ... [entry H-1]
    block 1: [replica][entry H] ... [entry 2H-1]
    ...

where a replica is ``[valid:1][sibling:8][spare:1]`` (10 bytes) in
sibling-validation mode, or additionally carries both fence keys when
replicated fence keys are used instead (the Figure 16 comparison).

The lock word packs (paper §4.2.1/§4.2.3)::

    bit  0       lock
    bits 1..10   argmax_keys  (entry index of the maximum key)
    bits 11..63  vacancy bitmap (up to 53 bits, each covering >= 1 entries)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import compress, repeat
from operator import lshift, not_
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import LayoutError, TornReadError
from repro.layout import versions
from repro.layout.codec import decode_value
from repro.layout.image import (
    ImageEncoder,
    image_struct,
    packer_values,
    tuple_getter,
    unpack_values,
)
from repro.memory.region import CACHE_LINE, NULL_ADDR
from repro.obs.bus import BUS

#: Lock-word field widths.
LOCK_BIT = 0x1
ARGMAX_SHIFT = 1
ARGMAX_BITS = 10
ARGMAX_MASK = ((1 << ARGMAX_BITS) - 1) << ARGMAX_SHIFT
VACANCY_SHIFT = ARGMAX_SHIFT + ARGMAX_BITS
VACANCY_BITS = 64 - VACANCY_SHIFT
FULL_MASK = 0xFFFFFFFFFFFFFFFF


#: Lease word layout (lock-line offset 24): [owner:12][epoch:20][expiry:32].
#: ``owner`` is a small non-zero client id (0 = lease free), ``epoch``
#: increments on every acquisition (ABA protection for the read-then-CAS
#: acquire protocol), ``expiry`` is an absolute simulated time in
#: microseconds after which survivors may steal the lease.
LOCK_LEASE_OFFSET = 24
LEASE_OWNER_BITS = 12
LEASE_EPOCH_BITS = 20
LEASE_EXPIRY_BITS = 32
LEASE_OWNER_MASK = (1 << LEASE_OWNER_BITS) - 1
LEASE_EPOCH_MASK = (1 << LEASE_EPOCH_BITS) - 1
LEASE_EXPIRY_MASK = (1 << LEASE_EXPIRY_BITS) - 1
_LEASE_OWNER_SHIFT = LEASE_EPOCH_BITS + LEASE_EXPIRY_BITS
_LEASE_EPOCH_SHIFT = LEASE_EXPIRY_BITS


def pack_lease(owner: int, epoch: int, expiry_us: int) -> int:
    """Compose the 8-byte lock-lease word."""
    if not 0 <= owner <= LEASE_OWNER_MASK:
        raise LayoutError(f"lease owner {owner} exceeds {LEASE_OWNER_BITS} bits")
    word = (owner & LEASE_OWNER_MASK) << _LEASE_OWNER_SHIFT
    word |= (epoch & LEASE_EPOCH_MASK) << _LEASE_EPOCH_SHIFT
    word |= expiry_us & LEASE_EXPIRY_MASK
    return word


def unpack_lease(word: int) -> Tuple[int, int, int]:
    """Split a lease word into (owner, epoch, expiry_us)."""
    owner = (word >> _LEASE_OWNER_SHIFT) & LEASE_OWNER_MASK
    epoch = (word >> _LEASE_EPOCH_SHIFT) & LEASE_EPOCH_MASK
    expiry_us = word & LEASE_EXPIRY_MASK
    return owner, epoch, expiry_us


#: Pessimistic (CIDER-style) ticket queue: two words behind the lease in
#: the same lock cache line.  Offset 32 is the next-ticket dispenser —
#: arriving waiters claim a position with one FAA; offset 40 is the
#: now-serving counter — advanced by the releasing holder's unlock batch,
#: or CAS'd forward by survivors dropping a dead waiter's ticket.  Both
#: words are zero on fresh nodes (node writers only touch the first 24
#: lock-line bytes), so every queue starts empty.  The serving holder
#: stamps the *existing* lease word at offset 24, which is how the queue
#: carries (owner, epoch, expiry) for CN-crash recovery.
LOCK_TICKET_OFFSET = 32
LOCK_SERVING_OFFSET = 40
#: Lock-line bytes a queued waiter polls in one READ: metadata word,
#: fence keys, lease, ticket dispenser, and serving counter.
LOCK_QUEUE_SPAN = LOCK_SERVING_OFFSET + 8


def sim_us(now: float) -> int:
    """Simulated seconds -> the microsecond tick leases are stamped in."""
    return int(now * 1e6)


def lease_expiry_us(now: float, duration: float) -> int:
    """Expiry tick for a lease acquired at *now*; strictly in the future."""
    return (sim_us(now + duration) + 1) & LEASE_EXPIRY_MASK


def pack_lock_word(locked: bool, argmax: int, vacancy: int) -> int:
    """Compose the 8-byte lock word."""
    if argmax >= (1 << ARGMAX_BITS):
        raise LayoutError(f"argmax {argmax} exceeds {ARGMAX_BITS} bits")
    word = (1 if locked else 0)
    word |= (argmax << ARGMAX_SHIFT) & ARGMAX_MASK
    word |= (vacancy << VACANCY_SHIFT) & FULL_MASK
    return word


def unpack_lock_word(word: int) -> Tuple[bool, int, int]:
    """Split the lock word into (locked, argmax, vacancy bitmap)."""
    locked = bool(word & LOCK_BIT)
    argmax = (word & ARGMAX_MASK) >> ARGMAX_SHIFT
    vacancy = word >> VACANCY_SHIFT
    return locked, argmax, vacancy


class VacancyBitmap:
    """Maps leaf entries onto the <= 53 vacancy bits of the lock word.

    When the span exceeds the bit budget, each bit covers several entries
    "as evenly as possible" (§4.2.1).  A bit is **set** when *every*
    entry it covers is occupied, so a clear bit is a sound (possibly
    coarse) signal that an empty entry exists in its coverage.
    """

    def __init__(self, span: int, bits: int = VACANCY_BITS) -> None:
        self.span = span
        self.bits = bits = min(bits, span)
        # Both directions of the entry <-> bit map, computed once: bit b
        # covers entries [ceil(b * span / bits), ceil((b + 1) * span / bits)).
        self._coverage = tuple(
            range(-(-bit * span // bits), -(-(bit + 1) * span // bits))
            for bit in range(bits))
        self._entry_mask = tuple(1 << self.bit_of(entry)
                                 for entry in range(span))

    def bit_of(self, entry: int) -> int:
        """Which vacancy bit covers *entry*."""
        return entry * self.bits // self.span

    def coverage(self, bit: int) -> range:
        """The entry range covered by *bit*."""
        return self._coverage[bit]

    def compose(self, occupied: Sequence) -> int:
        """Build the bitmap from a per-entry occupancy sequence (any
        truth values: a leaf's position-ordered keys will do)."""
        if len(occupied) != self.span:
            raise LayoutError("occupancy list length != span")
        vacant = 0  # the bits covering at least one empty entry
        for mask in compress(self._entry_mask, map(not_, occupied)):
            vacant |= mask
        return ~vacant & ((1 << self.bits) - 1)

    def lock_word(self, keys: Sequence[int]) -> int:
        """The unlocked lock word of a leaf holding position-ordered
        *keys* (0 = empty): argmax of the keys plus their vacancy bitmap."""
        return pack_lock_word(False, keys.index(max(keys)), self.compose(keys))

    def first_maybe_empty(self, bitmap: int, home: int) -> int:
        """First entry position (circular from *home*) that may be empty.

        Returns -1 when every bit is set (node definitely full).
        """
        start_bit = self.bit_of(home)
        for step in range(self.bits):
            bit = (start_bit + step) % self.bits
            if not (bitmap & (1 << bit)):
                coverage = self._coverage[bit]
                if step == 0 and home in coverage:
                    # The empty slot could be before `home` inside this
                    # bit's coverage; a probe must still start at `home`.
                    return home
                return coverage.start
        return -1


@dataclass(frozen=True)
class SortedNodeLayout:
    """Logical layout of a sorted-array node: every internal level of a
    tree, and the sorted leaves of Sherman, Marlin and ROLEX.

    Header: ``[version:1][level:1?][valid:1][count:2][fence_low:k]
    [fence_high:k][sibling:8]``; entry: ``[version:1][key:k][value:v]``.
    An internal node is the sorted leaf plus the level byte
    (``level_byte``); its entries are ``(pivot, child)`` — a child
    pointer is an 8-byte value.
    """

    span: int
    key_size: int = 8
    value_size: int = 8
    level_byte: bool = False

    OFF_VERSION = 0
    OFF_LEVEL = 1

    # Sizes, offsets and the image codec are precomputed once in
    # ``__post_init__`` — layouts are immutable and these land on every
    # simulated node access.
    def __post_init__(self) -> None:
        set_attr = object.__setattr__
        set_attr(self, "off_valid", 2 if self.level_byte else 1)
        set_attr(self, "off_count", self.off_valid + 1)
        set_attr(self, "off_fence_low", self.off_valid + 3)
        set_attr(self, "off_fence_high", self.off_fence_low + self.key_size)
        set_attr(self, "off_sibling", self.off_fence_high + self.key_size)
        set_attr(self, "header_size", self.off_sibling + 8)
        set_attr(self, "entry_size", 1 + self.key_size + self.value_size)
        logical_size = self.header_size + self.span * self.entry_size
        set_attr(self, "logical_size", logical_size)
        set_attr(self, "raw_size", versions.raw_size(logical_size))
        padded = -(-self.raw_size // CACHE_LINE) * CACHE_LINE
        set_attr(self, "total_size", padded + CACHE_LINE)
        set_attr(self, "lock_offset", padded)
        # Logical offset of every entry (its leading version byte), and
        # a getter of every version byte — each line's, the header's,
        # each entry's — of a raw image fetched at base 0.
        offsets = tuple(self.header_size + index * self.entry_size
                        for index in range(self.span))
        set_attr(self, "_entry_offsets", offsets)
        set_attr(self, "_image_versions", tuple_getter(
            [*range(0, self.raw_size, versions.LINE),
             versions.raw_of(self.OFF_VERSION),
             *map(versions.raw_of, offsets)]))
        # Image codec over the de-striped payload of a whole node: one
        # decoding struct per column (keys big-endian, values
        # little-endian; a value narrower than a word is its raw bytes),
        # and an encoder (:meth:`SortedNodeView.compose`) of every field
        # from two flat source vectors, one per byte order — [version
        # byte, level, valid, count, sibling, *values] and [fence_low,
        # fence_high, *keys].
        value_code = "Q" if self.value_size >= 8 else f"{self.value_size}s"
        header_code = "BBBH" if self.level_byte else "BBH"
        header_sources = (0, 1, 2, 3) if self.level_byte else (0, 2, 3)
        off_value = 1 + self.key_size
        set_attr(self, "_image_keys", image_struct(
            ">", zip(offsets, repeat("Q")), logical_size, 1))
        set_attr(self, "_image_values", image_struct(
            "<", zip(offsets, repeat(value_code)), logical_size, off_value))
        entries = list(enumerate(offsets))
        set_attr(self, "_encoder", ImageEncoder(
            [(0, header_code, header_sources), (self.off_sibling, "Q", (4,))]
            + [(off, "B", (0,)) for _index, off in entries]
            + [(off + off_value, value_code, (5 + index,))
               for index, off in entries],
            [(self.off_fence_low, "QQ", (0, 1))]
            + [(off + 1, "Q", (2 + index,)) for index, off in entries],
            logical_size))

    def entry_offset(self, index: int) -> int:
        if 0 <= index < self.span:
            return self._entry_offsets[index]
        raise LayoutError(f"node entry index {index} out of range")


_BITMAP = struct.Struct("<H")
#: 1 << position, for every entry position a leaf can have.
_POSITION_BIT = tuple(1 << position for position in range(1 << ARGMAX_BITS))
_REPLICA = struct.Struct("<BQ")  # [valid:1][sibling:8]
_FENCES = struct.Struct(">QQ")


def _torn(level: int, message: str) -> TornReadError:
    """A failed check of §4.1's level *level*, announced on the bus."""
    if BUS.active:
        BUS.emit("sync.torn", level=level)
    return TornReadError(message)


class DecodedNeighborhood:
    """What a lock-free leaf read yields once its checks passed:
    read-only, decoded from the de-striped payload on demand.

    ``sibling`` / ``valid`` come from the metadata replica the read
    carried; a speculative single-entry read carries none (both None).
    """

    __slots__ = ("sibling", "valid", "_shape", "_payload", "_keys")

    def __init__(self, shape: "ReadShape", payload: bytearray,
                 keys: Tuple[int, ...], valid: Optional[bool],
                 sibling: Optional[int]) -> None:
        self.sibling = sibling
        self.valid = valid
        self._shape = shape
        self._payload = payload
        self._keys = keys

    @property
    def fences(self) -> Tuple[int, int]:
        """(fence_low, fence_high) of the carried replica."""
        fences_at = self._shape._fences_at
        if fences_at is None:
            raise LayoutError("read carries no fence keys")
        return _FENCES.unpack_from(self._payload, fences_at)

    def find(self, key: int) -> Optional[Tuple[int, int]]:
        """(entry position, value) of *key*, or None.

        *key* must be a real key (>= 1) and, for a neighbourhood, hash
        to its home: the bitmap check has then already proved that an
        entry holding it is one the home bitmap flags.
        """
        try:
            offset = self._keys.index(key)
        except ValueError:
            return None
        if not key:
            return None  # key 0 marks an empty entry, never a match
        shape = self._shape
        return shape.positions[offset], decode_value(
            self._payload, shape._value_at[offset], shape._value_size)

    def pairs(self, start: int = 1) -> List[Tuple[int, int]]:
        """(key, value) of the occupied entries of a whole-leaf read
        with key >= *start*, in position order (what a scan consumes)."""
        start = max(start, 1)  # key 0 marks an empty entry
        values = self._shape._layout.image_values(self._payload)
        return [(key, value) for key, value in zip(self._keys, values)
                if key >= start]


class ReadShape:
    """One lock-free leaf read, compiled: what to fetch and how to
    validate and decode it in a fixed handful of C calls.

    A shape is built once per fetched-segment pattern of a layout — the
    neighbourhood of one home, one speculatively read entry, or the
    whole leaf (a scan) — from the layout's own offset tables.
    ``rounds`` are the raw ``(offset, length)`` READs relative to the
    leaf address, one round trip each (a round of several requests is a
    doorbell batch).  :meth:`decode` takes the payloads concatenated in
    that order and runs the three-level check of §4.1 — NV, EV,
    hopscotch bitmap, in that order — before anything is decoded
    ("de-stripe, then unpack", as for whole images).
    """

    __slots__ = ("rounds", "raw_len", "positions", "_home", "_versions",
                 "_ev_entry", "_ev_line", "_strips", "_keys", "_bitmap_at",
                 "_replica_at", "_fences_at", "_value_at", "_value_size",
                 "_layout")

    def __init__(self, layout: "LeafLayout",
                 rounds: Sequence[Sequence[Tuple[int, int]]],
                 entries: Sequence[int], home: Optional[int] = None,
                 replica_block: Optional[int] = None) -> None:
        """*rounds* hold logical segments, *entries* the fully fetched
        entry indices in payload order; a neighbourhood shape names its
        *home* (first of *entries*) and the replica it carries, the
        whole-leaf shape a replica and no home."""
        segments = [segment for group in rounds for segment in group]
        self.rounds = tuple(tuple(versions.raw_span(off, length)
                                  for off, length in group)
                            for group in rounds)
        raw_spans = [span for group in self.rounds for span in group]
        self.raw_len = sum(length for _off, length in raw_spans)
        payload_len = sum(length for _off, length in segments)

        def index_in(spans, offset: int) -> int:
            """Index of *offset* in the concatenation of *spans*."""
            base = 0
            for start, length in spans:
                if start <= offset < start + length:
                    return base + offset - start
                base += length
            raise LayoutError(f"offset {offset} is not fetched by {spans}")

        # Every version byte fetched: the line bytes of each segment,
        # then each entry's own; EV pairs index into that sequence.
        ev_ranges = [layout._entry_ev_ranges[index] for index in entries]
        version_raws = [pos for off, length in raw_spans
                        for pos in versions.line_version_positions(off, length)]
        version_raws += [raw_off for raw_off, _first, _end in ev_ranges]
        slot = {raw: number for number, raw in enumerate(version_raws)}
        self._versions = tuple_getter(
            [index_in(raw_spans, raw) for raw in version_raws])
        pairs = [(slot[raw_off], slot[line])
                 for raw_off, first, end in ev_ranges
                 for line in range(first, end, versions.LINE)]
        self._ev_entry = self._ev_line = None
        if pairs:
            self._ev_entry = tuple_getter([entry for entry, _line in pairs])
            self._ev_line = tuple_getter([line for _entry, line in pairs])
        # Strided deletes, last segment first so indices stay valid.
        strips = []
        base = self.raw_len
        for off, length in reversed(raw_spans):
            base -= length
            strip = versions.destripe_slice(off, length, at=base)
            if strip.start < strip.stop:
                strips.append(strip)
        self._strips = tuple(strips)

        entry_at = [index_in(segments, layout._entry_offsets[index])
                    for index in entries]
        self.positions = tuple(entries)
        self._keys = image_struct(">", zip(entry_at, repeat("Q")),
                                   payload_len, layout.ENTRY_OFF_KEY)
        self._value_at = tuple(at + layout.entry_off_value for at in entry_at)
        self._value_size = layout.value_size
        self._home = home
        self._layout = layout
        self._bitmap_at = self._replica_at = self._fences_at = None
        if home is not None:
            self._bitmap_at = entry_at[0] + layout.ENTRY_OFF_BITMAP
        if replica_block is not None:
            self._replica_at = index_in(
                segments, layout.replica_offset(replica_block))
            if layout.fence_keys:
                self._fences_at = (self._replica_at
                                   + layout.replica_off_fence_low)

    def decode(self, raw: bytes, hash_home: Optional[Callable] = None
               ) -> DecodedNeighborhood:
        """Check and decode the fetched bytes; raises
        :class:`TornReadError` on a torn state and :class:`LayoutError`
        when *raw* is not exactly the bytes this shape fetches."""
        if len(raw) != self.raw_len:
            raise LayoutError(
                f"read shape expects {self.raw_len} raw bytes, got {len(raw)}")
        version_bytes = bytes(self._versions(raw))
        nvs = set(version_bytes.translate(versions.NV_OF_BYTE))
        if len(nvs) > 1:
            raise _torn(1, f"node-level versions disagree: {sorted(nvs)}")
        if self._ev_entry is not None:
            evs = version_bytes.translate(versions.EV_OF_BYTE)
            if self._ev_entry(evs) != self._ev_line(evs):
                raise _torn(2, "entry-level versions disagree within an "
                            f"entry of {self.positions}")
        payload = bytearray(raw)
        for strip in self._strips:
            del payload[strip]
        keys = self._keys.unpack(payload)
        if self._replica_at is None:  # one speculative entry: no bitmap
            return DecodedNeighborhood(self, payload, keys, None, None)
        if self._home is None:
            self._check_image_bitmaps(payload, keys, hash_home)
        else:
            self._check_bitmap(payload, keys, hash_home)
        valid, sibling = _REPLICA.unpack_from(payload, self._replica_at)
        return DecodedNeighborhood(self, payload, keys, bool(valid), sibling)

    def _check_bitmap(self, payload: bytearray, keys: Tuple[int, ...],
                      hash_home: Callable) -> None:
        """Level 3: the stored home bitmap must equal the one the
        fetched keys imply, else the read interleaved with a hop."""
        home = self._home
        stored, = _BITMAP.unpack_from(payload, self._bitmap_at)
        actual = 0
        bit = 1
        for key in keys:
            if key and hash_home(key) == home:
                actual |= bit
            bit <<= 1
        if stored != actual:
            raise _torn(3, f"hopscotch bitmap of home {home} is "
                        f"{stored:#06x}, keys say {actual:#06x} "
                        "(in-flight hop)")

    def _check_image_bitmaps(self, payload: bytearray, keys: Tuple[int, ...],
                             hash_home: Callable) -> None:
        """Level 3 over a whole leaf, hashing next to nothing: the
        stored bitmaps must flag exactly the occupied entries, each
        once, and no key may sit in two.  A hop lands entry by entry in
        position order, so a flag can vouch unseen for another home's
        key only where it wraps past the table's end (that entry is
        written *before* its home's): only keys under such flags are
        hashed.  The oracle hashes every key of every neighbourhood."""
        layout = self._layout
        span = layout.span
        bitmaps = layout._image_bitmaps.unpack(payload)
        flagged = sum(map(lshift, bitmaps, range(span)))
        wrapped = flagged >> span
        flagged = (flagged & ((1 << span) - 1)) + wrapped
        flags = int.from_bytes(layout._pack_bitmaps(*bitmaps), "little")
        occupied = flagged.bit_count()
        if (flagged != sum(compress(_POSITION_BIT, keys))
                or flags.bit_count() != occupied
                or len(set(keys)) != occupied + (occupied < span)):
            raise _torn(3, "hopscotch bitmaps and occupied entries of the "
                        "leaf disagree (in-flight hop)")
        for pos in range(wrapped.bit_length()):
            if wrapped >> pos & 1:  # the one flag on entry *pos* wrapped
                home = hash_home(keys[pos])
                if home <= pos or not bitmaps[home] >> (span + pos - home) & 1:
                    raise _torn(3, f"entry {pos} is flagged past the table's "
                                f"end, but not by its key's home {home} "
                                "(in-flight hop)")


@dataclass(frozen=True)
class LeafLayout:
    """Logical layout of a hopscotch leaf node.

    ``replicated`` controls metadata replication (replica per block of H
    entries) versus a single front header.  ``fence_keys`` switches the
    replica/header format between sibling-validation (10 B) and
    fence-key-replication (10 + 2k B) modes — the Figure 16 comparison.
    """

    span: int
    neighborhood: int
    key_size: int = 8
    value_size: int = 8
    replicated: bool = True
    fence_keys: bool = False

    # Sizes and per-entry offsets are precomputed once in
    # ``__post_init__`` — layouts are immutable and ``entry_offset`` is
    # on the path of every simulated entry access.
    def __post_init__(self) -> None:
        if self.replicated and self.span % self.neighborhood:
            raise LayoutError(
                f"span {self.span} must be a multiple of neighborhood "
                f"{self.neighborhood} for metadata replication")
        set_attr = object.__setattr__
        replica_size = 1 + 8 + 1  # valid + sibling + spare
        if self.fence_keys:
            replica_size += 2 * self.key_size
        entry_size = 1 + 2 + self.key_size + self.value_size
        num_blocks = self.span // self.neighborhood if self.replicated else 1
        block_size = replica_size + self.neighborhood * entry_size
        if self.replicated:
            logical_size = num_blocks * block_size
        else:
            logical_size = replica_size + self.span * entry_size
        raw = versions.raw_size(logical_size)
        padded = -(-raw // CACHE_LINE) * CACHE_LINE
        set_attr(self, "replica_size", replica_size)
        set_attr(self, "entry_size", entry_size)
        set_attr(self, "num_blocks", num_blocks)
        set_attr(self, "block_size", block_size)
        set_attr(self, "logical_size", logical_size)
        set_attr(self, "raw_size", raw)
        set_attr(self, "total_size", padded + CACHE_LINE)
        set_attr(self, "lock_offset", padded)
        set_attr(self, "entry_off_value", 3 + self.key_size)
        if self.replicated:
            offsets = tuple(
                (index // self.neighborhood) * block_size + replica_size
                + (index % self.neighborhood) * entry_size
                for index in range(self.span))
        else:
            offsets = tuple(replica_size + index * entry_size
                            for index in range(self.span))
        set_attr(self, "_entry_offsets", offsets)
        # Per-entry raw coordinates of the version bytes (read shapes and
        # the image codec compile from these): the entry's raw offset
        # (its leading version byte) and the [first, end) raw range of
        # line version bytes covered by its span.
        ppl = versions.PAYLOAD_PER_LINE
        line_size = versions.LINE
        ev_ranges = []
        for off in offsets:
            line = off // ppl
            raw_off = line * line_size + 1 + (off - line * ppl)
            last = off + entry_size - 1
            line = last // ppl
            raw_end = line * line_size + 2 + (last - line * ppl)
            first_line = ((raw_off + line_size - 1) // line_size) * line_size
            ev_ranges.append((raw_off, first_line, raw_end))
        set_attr(self, "_entry_ev_ranges", tuple(ev_ranges))
        # Image codec, decoding half: one struct per field over the
        # de-striped payload of a whole leaf (keys big-endian, values
        # and bitmaps little-endian — the field codecs of
        # ``repro.layout.codec``; an inline value narrower than a word
        # is its raw bytes), plus a getter of every entry version byte
        # straight from a raw image fetched at base 0.
        value_code = "Q" if self.value_size >= 8 else f"{self.value_size}s"
        set_attr(self, "_image_keys", image_struct(
            ">", zip(offsets, repeat("Q")), logical_size, self.ENTRY_OFF_KEY))
        set_attr(self, "_image_values", image_struct(
            "<", zip(offsets, repeat(value_code)), logical_size,
            self.entry_off_value))
        set_attr(self, "_image_bitmaps", image_struct(
            "<", zip(offsets, repeat("H")), logical_size,
            self.ENTRY_OFF_BITMAP))
        set_attr(self, "_image_entry_versions", tuple_getter(
            [raw_off for raw_off, _first, _end in ev_ranges]))
        set_attr(self, "_pack_bitmaps", struct.Struct(f"<{self.span}H").pack)
        # Encoding half (:meth:`encode_image`): every field of the leaf
        # from two flat source vectors, one per byte order — [valid,
        # sibling, version byte, *bitmaps, *values] and [fence_low,
        # fence_high, *keys].
        span = self.span
        replicas = [self.replica_offset(block) for block in range(num_blocks)]
        entries = list(enumerate(offsets))
        set_attr(self, "_encoder", ImageEncoder(
            [(at, "BQ", (0, 1)) for at in replicas]
            + [(off, "BH", (2, 3 + index)) for index, off in entries]
            + [(off + self.entry_off_value, value_code, (3 + span + index,))
               for index, off in entries],
            [(at + self.replica_off_fence_low, "QQ", (0, 1))
             for at in replicas if self.fence_keys]
            + [(off + self.ENTRY_OFF_KEY, "Q", (2 + index,))
               for index, off in entries], logical_size))
        # Read shapes, compiled on first use: one per neighbourhood home
        # (and, under None, the whole leaf's) and one per speculatively
        # read entry — at most 2 * span + 1.
        set_attr(self, "_neighborhood_shapes", {})
        set_attr(self, "_entry_shapes", {})

    # -- positions --------------------------------------------------------------

    def block_of(self, entry: int) -> int:
        return entry // self.neighborhood if self.replicated else 0

    def replica_offset(self, block: int) -> int:
        if not self.replicated:
            if block != 0:
                raise LayoutError("unreplicated layout has a single header")
            return 0
        return block * self.block_size

    def entry_offset(self, index: int) -> int:
        if 0 <= index < self.span:
            return self._entry_offsets[index]
        raise LayoutError(f"leaf entry index {index} out of range")

    # -- whole-leaf composition -----------------------------------------------------

    def encode_image(self, keys: Sequence[int], values: Sequence[int],
                     bitmaps: Sequence[int], sibling: int = NULL_ADDR,
                     fence_low: int = 0, fence_high: int = 0,
                     nv: int = 0) -> bytes:
        """The raw striped image of a freshly written leaf.

        *keys* (0 = empty entry), *values* and hopscotch *bitmaps* are
        in entry-position order; every replica says valid and carries
        *sibling* (and the fence keys, in that format), and every line
        and entry version byte is (*nv*, EV 0) — node-write semantics.
        The per-entry composition of ``tests/oracles.py``
        (``compose_leaf``) is its test oracle.
        """
        span = self.span
        if not len(keys) == len(values) == len(bitmaps) == span:
            raise LayoutError(
                f"a leaf image takes {span} keys, values and bitmaps, got "
                f"{len(keys)}, {len(values)} and {len(bitmaps)}")
        version = versions.pack_version(nv, 0)
        values = packer_values(values, self.value_size)
        return self._encoder.encode(
            [1, sibling, version, *bitmaps, *values],
            [fence_low, fence_high, *keys], version)

    def image_values(self, payload: bytearray) -> Sequence[int]:
        """The value of every entry in position order, from the
        de-striped payload of a whole leaf."""
        return unpack_values(self._image_values, payload, self.value_size)

    # Entry field offsets (relative to entry start).
    ENTRY_OFF_VERSION = 0
    ENTRY_OFF_BITMAP = 1
    ENTRY_OFF_KEY = 3

    # Replica field offsets (relative to replica start).
    REPLICA_OFF_VALID = 0
    REPLICA_OFF_SIBLING = 1

    @property
    def replica_off_fence_low(self) -> int:
        if not self.fence_keys:
            raise LayoutError("layout has no fence keys")
        return 9

    @property
    def replica_off_fence_high(self) -> int:
        return 9 + self.key_size

    # -- read spans -------------------------------------------------------------

    def neighborhood_segments(self, home: int) -> List[Tuple[int, int]]:
        """Logical (offset, length) segments covering the neighborhood of
        *home* plus a replica (encompassed or adjacent, §4.2.2).

        One segment normally; two when the neighborhood wraps around the
        end of the table (read with doorbell batching, §4.4).
        """
        if not self.replicated:
            # Entries only; the header needs its own dedicated access.
            return self._entry_segments(home, self.neighborhood)
        segments: List[Tuple[int, int]] = []
        end = home + self.neighborhood
        if end <= self.span:
            if home % self.neighborhood == 0:
                start = self.replica_offset(self.block_of(home))
            else:
                start = self.entry_offset(home)
            stop = self.entry_offset(end - 1) + self.entry_size
            segments.append((start, stop - start))
        else:
            # Wrap-around: tail segment + head segment (head starts at
            # replica 0, so a replica is always covered).
            start = self.entry_offset(home)
            stop = self.entry_offset(self.span - 1) + self.entry_size
            segments.append((start, stop - start))
            head_stop = self.entry_offset(end - self.span - 1) + self.entry_size
            segments.append((0, head_stop))
        return segments

    def neighborhood_replica_block(self, home: int) -> int:
        """Which metadata replica :meth:`neighborhood_segments` carries
        (the single header when unreplicated)."""
        if not self.replicated:
            return 0
        if home % self.neighborhood == 0:
            return home // self.neighborhood
        if home + self.neighborhood > self.span:
            return 0  # wrap-around reads include block 0's replica
        return home // self.neighborhood + 1

    def neighborhood_shape(self, home: int) -> ReadShape:
        """The compiled read of *home*'s neighbourhood: the segments of
        :meth:`neighborhood_segments`, preceded by a dedicated header
        READ when metadata is not replicated (the §3.2.2 extra access)."""
        shape = self._neighborhood_shapes.get(home)
        if shape is None:
            rounds = [self.neighborhood_segments(home)]
            if not self.replicated:
                rounds.insert(0, [(0, self.replica_size)])
            entries = [(home + offset) % self.span
                       for offset in range(self.neighborhood)]
            shape = self._neighborhood_shapes[home] = ReadShape(
                self, rounds, entries, home,
                self.neighborhood_replica_block(home))
        return shape

    def entry_shape(self, index: int) -> ReadShape:
        """The compiled speculative read of entry *index* alone (§4.3)."""
        shape = self._entry_shapes.get(index)
        if shape is None:
            segment = (self.entry_offset(index), self.entry_size)
            shape = self._entry_shapes[index] = ReadShape(
                self, [[segment]], [index])
        return shape

    def full_shape(self) -> ReadShape:
        """The compiled lock-free read of the whole leaf (a scan, §4.4),
        from its first payload byte like a locked full-leaf fetch."""
        shape = self._neighborhood_shapes.get(None)  # no home: all of them
        if shape is None:
            shape = self._neighborhood_shapes[None] = ReadShape(
                self, [[self.full_span()]], range(self.span), replica_block=0)
        return shape

    def _entry_segments(self, home: int, count: int) -> List[Tuple[int, int]]:
        segments = []
        end = home + count
        if end <= self.span:
            start = self.entry_offset(home)
            stop = self.entry_offset(end - 1) + self.entry_size
            segments.append((start, stop - start))
        else:
            start = self.entry_offset(home)
            stop = self.entry_offset(self.span - 1) + self.entry_size
            segments.append((start, stop - start))
            stop2 = self.entry_offset(end - self.span - 1) + self.entry_size
            segments.append((self.entry_offset(0) if not self.replicated else 0,
                             stop2 - (self.entry_offset(0)
                                      if not self.replicated else 0)))
        return segments

    def range_segments(self, first: int, last: int) -> List[Tuple[int, int]]:
        """Logical segments covering entries [first..last] (circular) plus
        the replica of *first*'s block (for half-split detection).
        """
        if first <= last:
            if self.replicated:
                start = self.replica_offset(self.block_of(first))
            else:
                start = self.entry_offset(first)
            stop = self.entry_offset(last) + self.entry_size
            return [(start, stop - start)]
        # Wrapped: [first .. span-1] then [0 .. last].  The head segment
        # starts at logical 0 and therefore carries block 0's replica, so
        # the tail segment starts at the first entry directly — starting
        # it at the block replica could overlap the head segment, and
        # overlapping fetched segments must never exist (writes would
        # route ambiguously).
        start = self.entry_offset(first)
        stop = self.entry_offset(self.span - 1) + self.entry_size
        head_stop = self.entry_offset(last) + self.entry_size
        return [(start, stop - start), (0, head_stop)]

    def entries_covered_by_range(self, first: int, last: int) -> set:
        """Entry indices whose bytes :meth:`range_segments` fully fetches.

        A non-wrapped segment starts at the replica of *first*'s block, so
        it also covers the entries between the block start and *first*.
        """
        if first <= last:
            start_entry = (self.block_of(first) * self.neighborhood
                           if self.replicated else first)
            return set(range(start_entry, last + 1))
        # Wrapped: the tail segment starts at *first* itself (the head
        # segment carries block 0's replica).
        return set(range(first, self.span)) | set(range(0, last + 1))

    def full_span(self) -> Tuple[int, int]:
        """The whole logical payload as one segment."""
        return (0, self.logical_size)
