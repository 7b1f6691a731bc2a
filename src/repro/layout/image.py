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
    source vectors — one per byte order — in about ten C calls.  The
    big-endian vector holds words only (keys, fence keys): one pack and
    one unpack turn it into the little-endian words with the same bytes,
    appended behind the little-endian vector; one gather and one packer
    lay every field of the payload (pad bytes pack as zeros), then
    :func:`repro.layout.versions.stripe`."""

    __slots__ = ("_little", "_to_big", "_from_little", "_gather", "_layout",
                 "_chunks")

    def __init__(self, little: Iterable[Tuple[int, str, Tuple[int, ...]]],
                 big: Iterable[Tuple[int, str, Tuple[int, ...]]],
                 logical_size: int) -> None:
        little, big = list(little), list(big)
        if any(set(codes) != {"Q"} for _off, codes, _sources in big):
            raise LayoutError("big-endian image fields must be words")
        self._little = 1 + max(source for field in little
                               for source in field[2])
        words = 1 + max(source for field in big for source in field[2])
        self._to_big = struct.Struct(f">{words}Q").pack
        self._from_little = struct.Struct(f"<{words}Q").unpack
        fields = sorted(little + [
            (off, codes, tuple(self._little + source for source in sources))
            for off, codes, sources in big])
        self._layout = image_struct("<", [field[:2] for field in fields],
                                    logical_size)
        self._gather = tuple_getter([source for field in fields
                                     for source in field[2]])
        self._chunks = versions.line_chunks(logical_size)

    def encode(self, little: Sequence, big: Sequence,
               version_byte: int) -> bytes:
        """Pack the *little*- and *big*-endian source vectors; every
        cache line opens with *version_byte* (node-write semantics)."""
        if len(little) != self._little:
            raise LayoutError(f"the little-endian source vector takes "
                              f"{self._little} values, got {len(little)}")
        try:
            payload = self._layout.pack(*self._gather(
                [*little, *self._from_little(self._to_big(*big))]))
        except struct.error as error:
            raise LayoutError(
                f"field does not fit the node layout: {error}") from None
        return versions.stripe(payload, self._chunks, version_byte)
