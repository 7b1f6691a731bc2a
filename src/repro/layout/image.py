"""Compiled codecs over whole de-striped node payloads.

A node layout knows the logical offset of every field it holds; the
helpers here turn such an offset table into one :mod:`struct` format
over the whole payload, so a leaf is decoded, or composed, in a handful
of C calls instead of one Python call per field.  Both node shapes of
:mod:`repro.core.node_layout` compile from them: the hopscotch leaves
(decoders, read shapes and the image encoder) and the sorted-array
nodes (column decoders and the image encoder).
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Callable, Iterable, Sequence, Tuple

from repro.errors import LayoutError
from repro.layout import versions


def image_struct(byte_order: str, fields: Iterable[Tuple[int, str]],
                 logical_size: int, field_off: int = 0) -> struct.Struct:
    """The ``(offset, code)`` *fields*, in offset order and each
    *field_off* further on, of a de-striped payload (a whole leaf, or
    the concatenated segments of a partial read).

    Everything between the fields is ``x`` padding — skipped by a
    decoder, zero-filled by an encoder — so the struct spans exactly
    *logical_size* bytes and a payload of any other length is rejected.
    """
    parts = []
    pos = 0
    for off, code in fields:
        parts.append(f"{off + field_off - pos}x{code}")
        pos = off + field_off + struct.calcsize(byte_order + code)
    parts.append(f"{logical_size - pos}x")
    return struct.Struct(byte_order + "".join(parts))


def image_packer(byte_order: str,
                 fields: Iterable[Tuple[int, str, Tuple[int, ...]]],
                 logical_size: int) -> Callable[[Sequence], int]:
    """The encoder twin of :func:`image_struct`: packs ``(offset, code,
    sources)`` *fields* — *sources* index the arguments of *code* in a
    flat source vector — into a whole de-striped payload, returned as a
    little-endian integer.  Pad bytes pack as zeros, so packers of
    disjoint fields (one per byte order) merge with one OR."""
    fields = sorted(fields)
    layout = image_struct(byte_order, [field[:2] for field in fields],
                          logical_size)
    gather = tuple_getter([source for field in fields
                           for source in field[2]])
    return lambda source: int.from_bytes(layout.pack(*gather(source)),
                                         "little")


def tuple_getter(indices: Sequence[int]) -> Callable:
    """``itemgetter(*indices)`` that returns a tuple for one index too
    (the stock one returns a scalar)."""
    if len(indices) == 1:
        index, = indices
        return lambda data: (data[index],)
    return itemgetter(*indices)


def packer_values(values: Sequence[int], size: int) -> Sequence:
    """*values* as the arguments of a packer whose value fields are
    *size* bytes wide: a full word packs as the integer (``Q``, zero
    padding behind it), a narrower one as its raw bytes (``{size}s``)."""
    if size >= 8:
        return values
    try:
        return [value.to_bytes(size, "little") for value in values]
    except OverflowError:
        raise LayoutError(
            f"a value does not fit in {size} bytes") from None


def unpack_values(codec: struct.Struct, payload: bytes,
                  size: int) -> Sequence[int]:
    """The decoder twin of :func:`packer_values`: the value column
    *codec* unpacks from *payload*, each value an integer."""
    values = codec.unpack(payload)
    if size < 8:
        values = [int.from_bytes(raw, "little") for raw in values]
    return values


class ImageEncoder:
    """The raw striped image of a freshly written node, from two flat
    source vectors — one per byte order — in about a dozen C calls: two
    packers over the whole payload merged with one big-int OR (pad
    bytes pack as zeros), then :func:`repro.layout.versions.stripe`."""

    __slots__ = ("_little", "_big", "_size", "_chunks")

    def __init__(self, little: Iterable[Tuple[int, str, Tuple[int, ...]]],
                 big: Iterable[Tuple[int, str, Tuple[int, ...]]],
                 logical_size: int) -> None:
        self._little = image_packer("<", little, logical_size)
        self._big = image_packer(">", big, logical_size)
        self._size = logical_size
        self._chunks = versions.line_chunks(logical_size)

    def encode(self, little: Sequence, big: Sequence,
               version_byte: int) -> bytes:
        """Pack the *little*- and *big*-endian source vectors; every
        cache line opens with *version_byte* (node-write semantics)."""
        try:
            payload = self._little(little) | self._big(big)
        except struct.error as error:
            raise LayoutError(
                f"field does not fit the node layout: {error}") from None
        return versions.stripe(payload.to_bytes(self._size, "little"),
                               self._chunks, version_byte)
