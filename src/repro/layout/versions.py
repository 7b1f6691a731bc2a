"""Two-level cache-line versions (paper §4.1.1).

A *striped region* interleaves payload with version bytes: each 64-byte
cache line holds 1 version byte followed by 63 payload bytes.  A version
byte packs a 4-bit **node-level version** (NV, high nibble) and a 4-bit
**entry-level version** (EV, low nibble).  Version bytes appear in three
places (all with the same packing):

* at the start of every cache line (this module's striping),
* at the start of the node header,
* at the start of every entry

— the latter two simply live *inside* the logical payload at positions the
node layout chooses.

Synchronization contract (single writer per node, enforced by the node
lock; many lock-free readers):

* **node write** — writer bumps NV at *every* version position and resets
  all EVs to 0; a reader that fetches any span with two different NV
  nibbles saw a torn node write and retries.
* **entry / hop-range write** — writer increments the EV at every version
  position *inside each rewritten entry* (each entry's positions move in
  lockstep, so EV nibbles within one entry are always equal at rest); a
  reader that fetches an entry whose EV nibbles disagree saw a torn entry
  write and retries.

Torn writes in the simulator land in 64-byte chunks aligned to *global*
cache-line boundaries (like a real NIC's DMA), and striped regions are
64-byte aligned, so every possible tear boundary coincides with a line
version byte — which is what makes the NV check complete.

Coordinates: *logical* offsets address payload bytes only; *raw* offsets
address the striped image.  ``raw_of`` maps between them.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Tuple

from repro.errors import LayoutError

#: Cache line size of the striped image.
LINE = 64

#: Payload bytes per cache line (one byte is the version).
PAYLOAD_PER_LINE = LINE - 1

_NIBBLE = 0xF

#: ``bytes.translate`` tables mapping a version byte to its NV / EV nibble.
NV_OF_BYTE = bytes(byte >> 4 for byte in range(256))
EV_OF_BYTE = bytes(byte & _NIBBLE for byte in range(256))


def pack_version(nv: int, ev: int) -> int:
    """Pack (NV, EV) nibbles into one version byte."""
    return ((nv & _NIBBLE) << 4) | (ev & _NIBBLE)


def unpack_version(byte: int) -> Tuple[int, int]:
    """Unpack a version byte into (NV, EV)."""
    return (byte >> 4) & _NIBBLE, byte & _NIBBLE


def bump_nibble(value: int) -> int:
    """Increment a 4-bit version nibble with wrap-around."""
    return (value + 1) & _NIBBLE


def raw_size(logical_size: int) -> int:
    """Bytes of striped image needed for *logical_size* payload bytes."""
    if logical_size < 0:
        raise LayoutError(f"negative logical size: {logical_size}")
    full, rest = divmod(logical_size, PAYLOAD_PER_LINE)
    return full * LINE + (1 + rest if rest else 0)


def raw_of(logical_off: int) -> int:
    """Raw offset of the payload byte at *logical_off*."""
    line = logical_off // PAYLOAD_PER_LINE
    return line * LINE + 1 + (logical_off - line * PAYLOAD_PER_LINE)


def logical_of(raw_off: int) -> int:
    """Logical offset of the payload byte at *raw_off* (not a version byte)."""
    line, within = divmod(raw_off, LINE)
    if within == 0:
        raise LayoutError(f"raw offset {raw_off} is a version byte")
    return line * PAYLOAD_PER_LINE + within - 1


def raw_span(logical_off: int, logical_len: int) -> Tuple[int, int]:
    """Raw (offset, length) covering logical [off, off+len).

    The span starts at the first payload byte (never earlier, so partial
    writes cannot clobber neighbouring payload) and naturally includes any
    line version bytes that fall inside it.
    """
    if logical_len <= 0:
        raise LayoutError(f"span length must be positive: {logical_len}")
    line = logical_off // PAYLOAD_PER_LINE
    start = line * LINE + 1 + (logical_off - line * PAYLOAD_PER_LINE)
    last = logical_off + logical_len - 1
    line = last // PAYLOAD_PER_LINE
    end = line * LINE + 2 + (last - line * PAYLOAD_PER_LINE)
    return start, end - start


def line_version_positions(raw_off: int, raw_len: int) -> List[int]:
    """Raw offsets of the line version bytes inside raw [off, off+len)."""
    first = ((raw_off + LINE - 1) // LINE) * LINE
    return list(range(first, raw_off + raw_len, LINE))


def destripe_slice(raw_off: int, raw_len: int, at: int = 0) -> slice:
    """Where the line version bytes of raw span [off, off+len) sit in a
    buffer holding that span from index *at* on: ``del buffer[slice]``
    leaves the span's payload bytes (de-striping in one strided delete).
    """
    return slice(at + -raw_off % LINE, at + raw_len, LINE)


def line_chunks(logical_size: int) -> struct.Struct:
    """Cuts a *logical_size*-byte payload into the chunks its cache
    lines carry, for :func:`stripe`; a payload of any other length does
    not unpack."""
    full, rest = divmod(logical_size, PAYLOAD_PER_LINE)
    return struct.Struct(f"{PAYLOAD_PER_LINE}s" * full
                         + (f"{rest}s" if rest else ""))


def stripe(payload: bytes, chunks: struct.Struct, version_byte: int) -> bytes:
    """The raw image of a whole region holding *payload*: *version_byte*
    at the head of every line — the inverse of
    :meth:`StripedSpan.image_payload`, in one split and one join."""
    byte = bytes((version_byte,))
    return byte + byte.join(chunks.unpack(payload))


class StripedSpan:
    """A mutable view over a fetched (or locally composed) raw byte span.

    ``base`` is the raw offset of ``data[0]`` within the striped region, so
    the same instance works for whole-node images (base 0) and partial
    fetches (base > 0).
    """

    __slots__ = ("base", "data")

    def __init__(self, data: bytes, base: int = 0) -> None:
        self.base = base
        self.data = bytearray(data)

    @classmethod
    def blank(cls, logical_size: int) -> "StripedSpan":
        """A zeroed full-region image for composing fresh nodes."""
        return cls(bytes(raw_size(logical_size)), base=0)

    # -- payload access ------------------------------------------------------

    def _raw_index(self, raw_off: int) -> int:
        index = raw_off - self.base
        if index < 0 or index >= len(self.data):
            raise LayoutError(
                f"raw offset {raw_off} outside span "
                f"[{self.base}, {self.base + len(self.data)})")
        return index

    def read_logical(self, logical_off: int, length: int) -> bytes:
        """Extract *length* payload bytes starting at *logical_off*."""
        data = self.data
        size = len(data)
        line = logical_off // PAYLOAD_PER_LINE
        within = logical_off - line * PAYLOAD_PER_LINE
        start = line * LINE + 1 + within - self.base
        if start < 0 or start >= size:
            raise LayoutError(
                f"raw offset {start + self.base} outside span "
                f"[{self.base}, {self.base + size})")
        take = PAYLOAD_PER_LINE - within
        if length <= take:
            # Fast path: the whole read lives inside one cache line.
            if start + length > size:
                raise LayoutError("logical read crossed the span boundary")
            return bytes(data[start:start + length])
        parts = [data[start:start + take]]
        remaining = length - take
        start += take + 1  # skip the next line's version byte
        while remaining > 0:
            if start >= size:
                raise LayoutError(
                    f"raw offset {start + self.base} outside span "
                    f"[{self.base}, {self.base + size})")
            take = PAYLOAD_PER_LINE if remaining > PAYLOAD_PER_LINE \
                else remaining
            parts.append(data[start:start + take])
            remaining -= take
            start += LINE
        out = b"".join(parts)
        if len(out) != length:
            raise LayoutError("logical read crossed the span boundary")
        return out

    def image_payload(self, logical_size: int) -> bytearray:
        """De-striped payload ``[0, logical_size)`` of a whole-region span.

        One copy plus one strided delete of the line version bytes; a
        span that starts past the first payload byte or ends before the
        last one raises instead of yielding a shifted payload.
        """
        base = self.base
        end = raw_size(logical_size) - base
        if base > 1 or end > len(self.data):
            raise LayoutError(
                f"span [{base}, {base + len(self.data)}) does not hold the "
                f"whole {logical_size}-byte payload")
        payload = self.data[:end]
        del payload[-base % LINE::LINE]  # destripe_slice(base, end), inline
        return payload

    def payload_byte(self, logical_off: int) -> int:
        """The single payload byte at *logical_off* (no bytes allocation)."""
        line = logical_off // PAYLOAD_PER_LINE
        index = line * LINE + 1 + (logical_off - line * PAYLOAD_PER_LINE) \
            - self.base
        if index < 0 or index >= len(self.data):
            raise LayoutError(
                f"raw offset {index + self.base} outside span "
                f"[{self.base}, {self.base + len(self.data)})")
        return self.data[index]

    def write_logical(self, logical_off: int, payload: bytes) -> None:
        """Store *payload* at *logical_off*, leaving version bytes alone."""
        data = self.data
        size = len(data)
        total = len(payload)
        line = logical_off // PAYLOAD_PER_LINE
        within = logical_off - line * PAYLOAD_PER_LINE
        start = line * LINE + 1 + within - self.base
        if start < 0 or start >= size:
            raise LayoutError(
                f"raw offset {start + self.base} outside span "
                f"[{self.base}, {self.base + size})")
        take = PAYLOAD_PER_LINE - within
        if total <= take:
            # Fast path: the whole write lives inside one cache line.
            if start + total > size:
                raise LayoutError("logical write crossed the span boundary")
            data[start:start + total] = payload
            return
        if start + take > size:
            raise LayoutError("logical write crossed the span boundary")
        data[start:start + take] = payload[:take]
        written = take
        start += take + 1  # skip the next line's version byte
        while written < total:
            if start >= size:
                raise LayoutError(
                    f"raw offset {start + self.base} outside span "
                    f"[{self.base}, {self.base + size})")
            take = PAYLOAD_PER_LINE if total - written > PAYLOAD_PER_LINE \
                else total - written
            if start + take > size:
                raise LayoutError("logical write crossed the span boundary")
            data[start:start + take] = payload[written:written + take]
            written += take
            start += LINE

    # -- version access --------------------------------------------------------

    def _version_positions_in(self, raw_off: int, raw_len: int) -> Iterator[int]:
        for pos in line_version_positions(raw_off, raw_len):
            yield pos

    def line_versions(self) -> List[Tuple[int, int]]:
        """All (raw_offset, version_byte) line positions inside this span."""
        positions = line_version_positions(self.base, len(self.data))
        return [(pos, self.data[pos - self.base]) for pos in positions]

    def set_all_versions(self, nv: int, ev: int = 0) -> None:
        """Set every line version byte in the span (node-write semantics).

        The caller separately sets header/entry version bytes through
        ``write_logical`` — this method only owns the striping bytes.
        """
        byte = pack_version(nv, ev)
        for pos in line_version_positions(self.base, len(self.data)):
            self.data[pos - self.base] = byte

    def bump_entry_versions(self, logical_off: int, logical_len: int) -> None:
        """Increment EV at every version position inside one entry's span.

        Covers the line version bytes that fall inside the entry; the
        entry's own leading version byte lives in the payload and is the
        caller's job (it knows the entry layout).
        """
        span_off, span_len = raw_span(logical_off, logical_len)
        for pos in self._version_positions_in(span_off, span_len):
            index = self._raw_index(pos)
            nv, ev = unpack_version(self.data[index])
            self.data[index] = pack_version(nv, bump_nibble(ev))

    def set_entry_line_versions(self, logical_off: int, logical_len: int,
                                nv: int, ev: int) -> None:
        """Force the line version bytes inside one entry's span."""
        span_off, span_len = raw_span(logical_off, logical_len)
        for pos in self._version_positions_in(span_off, span_len):
            self.data[self._raw_index(pos)] = pack_version(nv, ev)

    def sub_span(self, logical_off: int, logical_len: int) -> Tuple[int, bytes]:
        """Raw (offset, bytes) for writing back logical [off, off+len)."""
        span_off, span_len = raw_span(logical_off, logical_len)
        start = self._raw_index(span_off)
        return span_off, bytes(self.data[start:start + span_len])

    def nv_nibbles(self) -> List[int]:
        """NV nibble of every line version byte in the span."""
        data = self.data
        base = self.base
        first = ((base + LINE - 1) // LINE) * LINE
        return [(data[pos - base] >> 4) & _NIBBLE
                for pos in range(first, base + len(data), LINE)]

    def entry_ev_nibbles(self, logical_off: int, logical_len: int) -> List[int]:
        """EV nibbles of the line version bytes inside one entry's span."""
        span_off, span_len = raw_span(logical_off, logical_len)
        data = self.data
        base = self.base
        first = ((span_off + LINE - 1) // LINE) * LINE
        end = span_off + span_len
        if span_off < base or end > base + len(data):
            raise LayoutError(
                f"raw range [{span_off}, {end}) outside span "
                f"[{base}, {base + len(data)})")
        return [data[pos - base] & _NIBBLE
                for pos in range(first, end, LINE)]


class SpanSet:
    """Several fetched :class:`StripedSpan` segments acting as one view.

    Used for wrap-around neighborhood/hop-range reads, which arrive as two
    doorbell-batched segments.  Each logical access must fall entirely
    inside one segment (segments are split at entry boundaries, so field
    accesses never straddle them).
    """

    def __init__(self, spans: List[StripedSpan]) -> None:
        if not spans:
            raise LayoutError("SpanSet needs at least one span")
        self.spans = sorted(spans, key=lambda s: s.base)
        for a, b in zip(self.spans, self.spans[1:]):
            if a.base + len(a.data) > b.base:
                raise LayoutError(
                    "fetched segments overlap: writes would route "
                    f"ambiguously ([{a.base}, {a.base + len(a.data)}) vs "
                    f"[{b.base}, {b.base + len(b.data)}))")

    def _span_for(self, raw_off: int, raw_len: int) -> StripedSpan:
        for span in self.spans:
            if span.base <= raw_off and raw_off + raw_len <= span.base + len(span.data):
                return span
        raise LayoutError(
            f"raw range [{raw_off}, {raw_off + raw_len}) not covered by "
            f"any fetched segment")

    def _route(self, logical_off: int, length: int) -> StripedSpan:
        span_off, span_len = raw_span(logical_off, length)
        return self._span_for(span_off, span_len)

    def read_logical(self, logical_off: int, length: int) -> bytes:
        return self._route(logical_off, length).read_logical(logical_off, length)

    def payload_byte(self, logical_off: int) -> int:
        return self._route(logical_off, 1).payload_byte(logical_off)

    def write_logical(self, logical_off: int, payload: bytes) -> None:
        self._route(logical_off, len(payload)).write_logical(logical_off, payload)

    def bump_entry_versions(self, logical_off: int, logical_len: int) -> None:
        self._route(logical_off, logical_len).bump_entry_versions(
            logical_off, logical_len)

    def entry_ev_nibbles(self, logical_off: int, logical_len: int) -> List[int]:
        return self._route(logical_off, logical_len).entry_ev_nibbles(
            logical_off, logical_len)

    def nv_nibbles(self) -> List[int]:
        values: List[int] = []
        for span in self.spans:
            values.extend(span.nv_nibbles())
        return values

    def sub_span(self, logical_off: int, logical_len: int) -> Tuple[int, bytes]:
        return self._route(logical_off, logical_len).sub_span(
            logical_off, logical_len)
