"""Field codecs for node byte layouts.

Keys are unsigned 64-bit integers encoded **big-endian** so that byte-wise
lexicographic order equals numeric order — required both by the radix-tree
baseline (which consumes keys byte by byte) and by fence-key comparisons
done on raw bytes.  Values default to 8 bytes, matching the paper's YCSB
setup; inline values of other sizes are padded/truncated by the value
codec, and variable-length items use indirect blocks (§4.5).
"""

from __future__ import annotations

import struct

from repro.errors import LayoutError

#: Default key/value widths from the paper's workloads (8 B keys, 8 B values).
KEY_SIZE = 8
VALUE_SIZE = 8

#: Sentinel: no key may equal 2**64 - 1 (used as +infinity fence key).
MAX_KEY = (1 << 64) - 1

_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_KEY = struct.Struct(">Q")


def encode_key(key: int) -> bytes:
    """Big-endian 8-byte key encoding (order-preserving)."""
    if not 0 <= key <= MAX_KEY:
        raise LayoutError(f"key out of range: {key}")
    return _KEY.pack(key)


def decode_key(data: bytes, offset: int = 0) -> int:
    return _KEY.unpack_from(data, offset)[0]


def encode_value(value: int, size: int = VALUE_SIZE) -> bytes:
    """Fixed-width little-endian value encoding, zero-padded to *size*."""
    if size == 8:  # the default width; skip the padding concat
        return value.to_bytes(8, "little")
    if size < 1:
        raise LayoutError(f"value size must be >= 1: {size}")
    raw = value.to_bytes(8, "little")
    if size >= 8:
        return raw + bytes(size - 8)
    if value >= (1 << (8 * size)):
        raise LayoutError(f"value {value} does not fit in {size} bytes")
    return raw[:size]


def decode_value(data: bytes, offset: int = 0, size: int = VALUE_SIZE) -> int:
    if size >= 8:  # full-width word: unpack in place, no slice copy
        return _U64.unpack_from(data, offset)[0]
    return int.from_bytes(data[offset:offset + size], "little")


def encode_u16(value: int) -> bytes:
    return _U16.pack(value & 0xFFFF)


def decode_u16(data: bytes, offset: int = 0) -> int:
    return _U16.unpack_from(data, offset)[0]


def encode_u64(value: int) -> bytes:
    return _U64.pack(value & 0xFFFFFFFFFFFFFFFF)


def decode_u64(data: bytes, offset: int = 0) -> int:
    return _U64.unpack_from(data, offset)[0]


def fingerprint16(key: int) -> int:
    """A 2-byte key fingerprint (hotspot buffer, indirect-key filtering).

    Fibonacci hashing of the key, folded to 16 bits; cheap and well mixed.
    """
    mixed = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    return (mixed >> 48) & 0xFFFF


def fingerprint8(key: int) -> int:
    """A 1-byte fingerprint (SMART-style leaf checks)."""
    mixed = (key * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    return (mixed >> 56) & 0xFF
