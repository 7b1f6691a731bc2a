"""Oracles: reference implementations that only tests call.

Every compiled or batched path in ``src/repro`` replaced a slower,
plainer one, and the plain one is what the property tests hold the fast
one to.  Those references live here — outside ``src/``, so they cost the
source-line budget nothing and no production module can reach for them
(``tests/test_access.py`` checks that no ``src/`` module defines,
imports or calls a name in :data:`__all__`):

* :class:`HeapQueue` — the original one-heap event queue, with no
  same-instant lane (:class:`repro.sim.engine.Engine`'s heap + lane must
  pop in its order).
* :func:`check_nv_uniform`, :func:`collect_leaf_nv`, :func:`image_nv`,
  :func:`check_entry_evs`, :func:`reconstruct_bitmap`,
  :func:`check_hopscotch_bitmap` — §4.1's three reader-side checks,
  entry by entry (:class:`repro.core.node_layout.ReadShape` runs them
  compiled).
* :func:`compose_leaf` / :func:`compose_sorted_leaf` — a hopscotch leaf
  / a sorted-array node (leaf or internal) written field by field
  (``LeafLayout.encode_image`` / ``SortedNodeView.compose`` go through
  an ``ImageEncoder``).
* :func:`alloc_blocks_per_key` — one ``alloc`` + one write per KV block
  (``FamilyIndexBase._host_alloc_blocks`` lays a run).
* :func:`smart_bulk_load_per_key` — SMART's recursive bulk load over
  ``(key bytes, key, value)`` tuples (``SmartIndex.bulk_load`` recurses
  over index ranges of the sorted keys).
"""

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.baselines.smart import (
    _PARTIAL_MASK,
    _PARTIAL_SHIFT,
    _UPGRADE,
    NODE4,
    NODE256,
    SLOT_COUNTS,
    RadixNode,
    SmartIndex,
    encode_node,
    node_size,
    pack_slot,
)
from repro.core.family import FamilyIndexBase
from repro.core.node_layout import LeafLayout, SortedNodeLayout
from repro.core.nodes import LeafNodeView, SortedNodeView
from repro.errors import LayoutError, TornReadError
from repro.layout import (
    StripedSpan,
    encode_key,
    encode_u16,
    encode_u64,
    encode_value,
    pack_version,
)
from repro.layout.versions import LINE, NV_OF_BYTE
from repro.memory.region import NULL_ADDR
from repro.obs.bus import BUS
from repro.sim.engine import Entry

__all__ = [
    "HeapQueue",
    "alloc_blocks_per_key",
    "check_entry_evs",
    "check_hopscotch_bitmap",
    "check_nv_uniform",
    "collect_leaf_nv",
    "compose_leaf",
    "compose_sorted_leaf",
    "image_nv",
    "reconstruct_bitmap",
    "smart_bulk_load_per_key",
]


class HeapQueue:
    """The original event queue: one binary heap of ``(time, seq, event)``
    and nothing else.

    Kept as the reference implementation — golden tests hand one to
    ``Engine(queue=HeapQueue())`` and assert the production engine
    reproduces its pop order byte-for-byte.  The engine drains its
    ``_heap`` exactly as it drains its own; what the oracle lacks is the
    same-instant lane, so it orders entries for the current instant by
    ``(time, seq)`` like any other.
    """

    __slots__ = ("_heap",)

    _lane = None

    def __init__(self) -> None:
        self._heap: List[Entry] = []


# -- the three reader-side checks of §4.1, entry by entry ---------------------

def check_nv_uniform(nv_values: Iterable[int]) -> None:
    """Level 1: all node-level version nibbles must match."""
    values = set(nv_values)
    if len(values) > 1:
        if BUS.active:
            BUS.emit("sync.torn", level=1)
        raise TornReadError(f"node-level versions disagree: {sorted(values)}")


def check_entry_evs(view: LeafNodeView, indices: Sequence[int]) -> None:
    """Level 2: EV nibbles within each fetched entry must match."""
    for index in indices:
        evs = view.entry_evs(index)
        first = evs[0]
        for ev in evs:
            if ev != first:
                if BUS.active:
                    BUS.emit("sync.torn", level=2)
                raise TornReadError(
                    f"entry {index} entry-level versions disagree: "
                    f"{sorted(set(evs))}")


def reconstruct_bitmap(view: LeafNodeView, home: int,
                       hash_home) -> int:
    """Rebuild status(keys): which neighborhood entries hold keys whose
    home is *home*, from the actual fetched keys."""
    layout = view.layout
    bitmap = 0
    for offset in range(layout.neighborhood):
        pos = (home + offset) % layout.span
        entry = view.entry(pos)
        if entry.occupied and hash_home(entry.key) == home:
            bitmap |= 1 << offset
    return bitmap


def check_hopscotch_bitmap(view: LeafNodeView, home: int, hash_home) -> None:
    """Level 3: fetched home bitmap must equal the reconstructed one."""
    stored = view.entry(home).bitmap
    actual = reconstruct_bitmap(view, home, hash_home)
    if stored != actual:
        if BUS.active:
            BUS.emit("sync.torn", level=3)
        raise TornReadError(
            f"hopscotch bitmap of home {home} is {stored:#06x}, keys say "
            f"{actual:#06x} (in-flight hop)")


def collect_leaf_nv(view: LeafNodeView, indices: Sequence[int]) -> List[int]:
    """NV nibbles visible in a leaf view: line bytes + the version bytes
    of the given (fully fetched) entries.

    A whole-leaf image read from raw offset 0 answers through the
    layout's image codec; partial and segmented views go entry by entry.
    """
    span = view.span
    if (type(span) is StripedSpan and span.base == 0
            and len(indices) == view.layout.span):
        return image_nv(view)
    values = list(span.nv_nibbles())
    for index in indices:
        values.append(view.entry_nv(index))
    return values


def image_nv(view: LeafNodeView) -> List[int]:
    """Every NV nibble of a whole-leaf image fetched at raw offset 0:
    the line version bytes, then each entry's version byte."""
    layout = view.layout
    span = view.span
    if (type(span) is not StripedSpan or span.base
            or len(span.data) < layout.raw_size):
        raise LayoutError("view does not hold a whole raw leaf image")
    data = span.data
    version_bytes = data[0:layout.raw_size:LINE]
    version_bytes += bytes(layout._image_entry_versions(data))
    return list(version_bytes.translate(NV_OF_BYTE))


# -- whole leaves, field by field ---------------------------------------------

def compose_leaf(layout: LeafLayout, keys: Sequence[int],
                 values: Sequence[int], bitmaps: Sequence[int],
                 sibling: int = NULL_ADDR, fence_low: int = 0,
                 fence_high: int = 0, nv: int = 0) -> LeafNodeView:
    """A whole hopscotch leaf written entry by entry from
    position-ordered vectors: the reference
    :meth:`LeafLayout.encode_image` is held to byte for byte."""
    view = LeafNodeView.blank(layout, sibling, fence_low, fence_high, nv)
    for pos, (key, value, bitmap) in enumerate(zip(keys, values, bitmaps)):
        view.write_entry(pos, key, value, bitmap=bitmap, bump_ev=False)
    return view


def compose_sorted_leaf(layout: SortedNodeLayout,
                        items: Sequence[Tuple[int, int]], sibling: int,
                        fence_low: int, fence_high: int, nv: int,
                        level: int = 0) -> SortedNodeView:
    """A whole sorted-array node written field by field, at offsets
    counted here from the format — ``[version][level?][valid][count:2]
    [fence_low][fence_high][sibling:8]``, then ``[version][key][value]``
    per entry — not read off the layout: the reference
    :meth:`SortedNodeView.compose` is held to byte for byte."""
    view = SortedNodeView(layout, StripedSpan.blank(layout.logical_size))
    sp = view.span
    sp.set_all_versions(nv, 0)
    byte = bytes([pack_version(nv, 0)])
    header = [byte, bytes([level]) if layout.level_byte else b"", b"\x01",
              encode_u16(len(items)), encode_key(fence_low),
              encode_key(fence_high), encode_u64(sibling)]
    off = 0
    for field in header:
        if field:
            sp.write_logical(off, field)
        off += len(field)
    for index in range(layout.span):
        sp.write_logical(off, byte)
        if index < len(items):
            key, value = items[index]
            sp.write_logical(off + 1, encode_key(key))
            sp.write_logical(off + 1 + layout.key_size,
                             encode_value(value, layout.value_size))
        off += 1 + layout.key_size + layout.value_size
    return view


# -- bulk loads, key by key ---------------------------------------------------

def alloc_blocks_per_key(index: FamilyIndexBase, keys: Sequence[int],
                         values: Sequence[int]) -> List[int]:
    """Allocate + fill one ``[key: 8][value]`` block per key, each with
    its own ``_host_alloc`` and its own write: what a run of
    :meth:`FamilyIndexBase._host_alloc_blocks` must be indistinguishable
    from, in addresses and in bytes."""
    size = index.config.value_size
    addrs = []
    for key, value in zip(keys, values):
        addr = index._host_alloc(8 + size)
        index._host_write(addr, encode_key(key) + encode_value(value, size))
        addrs.append(addr)
    return addrs


def smart_bulk_load_per_key(index: SmartIndex,
                            pairs: Sequence[Tuple[int, int]]) -> None:
    """SMART's bulk load as it stood before it recursed over key ranges:
    a ``(key bytes, key, value)`` tuple per key, a dict of lists per
    level, one block allocation per leaf."""

    def with_partial(word: int, partial: int) -> int:
        return (word & ~_PARTIAL_MASK) | (partial << _PARTIAL_SHIFT)

    def build(group: list, depth: int) -> int:
        if len(group) == 1:
            _key_bytes, key, value = group[0]
            addr, = alloc_blocks_per_key(index, [key], [value])
            return pack_slot(0, addr, leaf=True)
        first = group[0][0]
        last = group[-1][0]
        prefix_len = 0
        while depth + prefix_len < 8 and \
                first[depth + prefix_len] == last[depth + prefix_len]:
            prefix_len += 1
        prefix = first[depth:depth + prefix_len]
        branch_depth = depth + prefix_len
        children: Dict[int, list] = {}
        for item in group:
            children.setdefault(item[0][branch_depth], []).append(item)
        node_type = NODE4
        while SLOT_COUNTS[node_type] < len(children):
            node_type = _UPGRADE[node_type]
        node = RadixNode(NULL_ADDR, node_type, depth, prefix,
                         [0] * SLOT_COUNTS[node_type])
        for slot, (partial, child_group) in enumerate(
                sorted(children.items())):
            word = with_partial(build(child_group, branch_depth + 1), partial)
            node.slots[partial if node_type == NODE256 else slot] = word
        node.addr = index._host_alloc(node.size)
        index._internal_bytes += node.size
        index._internal_count += 1
        index._host_write(node.addr, encode_node(node))
        return pack_slot(0, node.addr, leaf=False, node_type=node_type)

    pairs = index._checked_pairs(pairs)
    items = [(encode_key(k), k, v) for k, v in pairs]
    root = RadixNode(NULL_ADDR, NODE256, 0, b"", [0] * SLOT_COUNTS[NODE256])
    root.addr = index._host_alloc(node_size(NODE256))
    index._internal_bytes += node_size(NODE256)
    index._internal_count += 1
    groups: Dict[int, list] = {}
    for key_bytes, key, value in items:
        groups.setdefault(key_bytes[0], []).append((key_bytes, key, value))
    for partial, group in groups.items():
        root.slots[partial] = with_partial(build(group, depth=1), partial)
    index._host_write(root.addr, encode_node(root))
    index.root_addr = root.addr
    index.root_type = NODE256
    index.loaded_items = len(pairs)
