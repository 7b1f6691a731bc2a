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
  compiled), over one entry's version nibbles read byte by byte
  (:func:`entry_nv`, :func:`entry_evs`), and :func:`set_all_nv`, a node
  write's versions on a local leaf view.
* :func:`compose_leaf` / :func:`compose_sorted_leaf` — a hopscotch leaf
  / a sorted-array node (leaf or internal) written field by field
  (``LeafLayout.encode_image`` / ``SortedNodeView.compose`` go through
  an ``ImageEncoder``).
* :func:`alloc_blocks_per_key` — one ``alloc`` + one write per KV block
  (``FamilyIndexBase._host_alloc_blocks`` lays a run).
* :func:`smart_bulk_load_per_key` — SMART's recursive bulk load over
  ``(key bytes, key, value)`` tuples (``SmartIndex.bulk_load`` recurses
  over index ranges of the sorted keys).
* :class:`ExactLfuOracle` — the hotspot buffer's exact LFU as a scan of
  every record per eviction (``HotspotBuffer`` files records in
  per-counter buckets and evicts in O(1)).

The concurrent campaigns' helpers live here too: :func:`drive_legal`
runs op generators (:func:`writers_and_readers` builds the usual mix)
under a recording, and :func:`assert_legal` holds every answer and the
final state to :func:`repro.faults.history.check_history`.
"""

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.core.hotspot import ENTRY_BYTES
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
from repro.layout.codec import fingerprint16
from repro.layout.versions import (
    LINE,
    NV_OF_BYTE,
    SpanSet,
    line_version_positions,
    raw_span,
)
from repro import obs
from repro.faults.history import check_history, history
from repro.memory.region import NULL_ADDR
from repro.obs.bus import BUS
from repro.sim.engine import Entry

__all__ = [
    "ExactLfuOracle",
    "HeapQueue",
    "alloc_blocks_per_key",
    "assert_legal",
    "check_entry_evs",
    "check_hopscotch_bitmap",
    "check_nv_uniform",
    "collect_leaf_nv",
    "compose_leaf",
    "compose_sorted_leaf",
    "drive",
    "drive_legal",
    "entry_evs",
    "entry_nv",
    "image_nv",
    "reconstruct_bitmap",
    "set_all_nv",
    "smart_bulk_load_per_key",
    "writers_and_readers",
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


class ExactLfuOracle:
    """The hotspot buffer's eviction rule, by brute force.

    ``records`` maps ``(leaf address, entry index)`` to ``[fingerprint,
    counter, tick]``, where *tick* is when the record reached its
    counter.  The victim is the least ``(counter, tick)``: the least used
    record and, on a tie, the one that has held its counter longest.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = capacity_bytes // ENTRY_BYTES
        self.records: Dict[Tuple[int, int], List[int]] = {}
        self.tick = 0

    def record_access(self, leaf_addr: int, key_index: int, key: int):
        """Count, refresh or insert; returns the evicted slot, if any."""
        if not self.capacity:
            return None
        self.tick += 1
        fingerprint = fingerprint16(key)
        slot, victim = (leaf_addr, key_index), None
        record = self.records.get(slot)
        if record is not None and record[0] == fingerprint:
            record[1:] = [record[1] + 1, self.tick]
            return None
        if record is None and len(self.records) >= self.capacity:
            victim = min(self.records, key=lambda s: self.records[s][1:])
            del self.records[victim]
        self.records[slot] = [fingerprint, 1, self.tick]
        return victim

    def invalidate(self, leaf_addr: int, key_index: int) -> None:
        self.records.pop((leaf_addr, key_index), None)

    def lookup(self, leaf_addr: int, home: int, neighborhood: int, span: int,
               key: int) -> Optional[Tuple[int, int]]:
        """``(entry index, counter)`` of the hottest matching record in
        the neighbourhood, the first in neighbourhood order on a tie."""
        found = []
        for offset in range(neighborhood):
            index = (home + offset) % span
            record = self.records.get((leaf_addr, index))
            if record is not None and record[0] == fingerprint16(key):
                found.append((record[1], -offset, index))
        if not found:
            return None
        counter, _, index = max(found)
        return index, counter


# -- the three reader-side checks of §4.1, entry by entry ---------------------

def check_nv_uniform(nv_values: Iterable[int]) -> None:
    """Level 1: all node-level version nibbles must match."""
    values = set(nv_values)
    if len(values) > 1:
        if BUS.active:
            BUS.emit("sync.torn", level=1)
        raise TornReadError(f"node-level versions disagree: {sorted(values)}")


def entry_nv(view: LeafNodeView, index: int) -> int:
    """The NV nibble of one entry's own version byte."""
    return view.span.read_logical(view.layout.entry_offset(index), 1)[0] >> 4


def entry_evs(view: LeafNodeView, index: int) -> List[int]:
    """Every EV nibble within one entry's span: its own version byte's,
    then each line version byte's the entry covers."""
    layout = view.layout
    off = layout.entry_offset(index)
    raw_off, raw_len = raw_span(off, layout.entry_size)
    span = view.span
    if isinstance(span, SpanSet):
        span = span._span_for(raw_off, raw_len)
    return [span.read_logical(off, 1)[0] & 0xF] + [
        span.data[pos - span.base] & 0xF
        for pos in line_version_positions(raw_off, raw_len)]


def check_entry_evs(view: LeafNodeView, indices: Sequence[int]) -> None:
    """Level 2: EV nibbles within each fetched entry must match."""
    for index in indices:
        evs = entry_evs(view, index)
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


def set_all_nv(view: LeafNodeView, nv: int) -> None:
    """Node-write semantics on a local leaf view: every NV nibble *nv*,
    every EV reset."""
    view.span.set_all_versions(nv, 0)
    byte = bytes([pack_version(nv, 0)])
    for index in range(view.layout.span):
        view.span.write_logical(view.layout.entry_offset(index), byte)


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
        values.append(entry_nv(view, index))
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
    position-ordered vectors, each entry's fields behind its version
    byte counted here from the format — ``[bitmap][key][value]``, the
    bitmap ``layout.bitmap_size`` bytes (the one width read off the
    layout) — not from the layout's offsets: the reference
    :meth:`LeafLayout.encode_image` is held to byte for byte."""
    view = LeafNodeView.blank(layout, sibling, fence_low, fence_high, nv)
    for pos, (key, value, bitmap) in enumerate(zip(keys, values, bitmaps)):
        fields = (bitmap.to_bytes(layout.bitmap_size, "little")
                  + encode_key(key) + encode_value(value, layout.value_size))
        view.span.write_logical(layout.entry_offset(pos) + 1, fields)
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
        index._host_write(node.addr, encode_node(node))
        return pack_slot(0, node.addr, leaf=False, node_type=node_type)

    pairs = index._checked_pairs(pairs)
    items = [(encode_key(k), k, v) for k, v in pairs]
    root = RadixNode(NULL_ADDR, NODE256, 0, b"", [0] * SLOT_COUNTS[NODE256])
    root.addr = index._host_alloc(node_size(NODE256))
    groups: Dict[int, list] = {}
    for key_bytes, key, value in items:
        groups.setdefault(key_bytes[0], []).append((key_bytes, key, value))
    for partial, group in groups.items():
        root.slots[partial] = with_partial(build(group, depth=1), partial)
    index._host_write(root.addr, encode_node(root))
    index.root_addr = root.addr
    index.root_type = NODE256
    index.loaded_items = len(pairs)


def drive(cluster, *gens):
    """Run the op generators *gens* concurrently, to completion."""
    for gen in gens:
        def runner(g=gen):
            yield from g
        cluster.engine.process(runner())
    cluster.run()


def assert_legal(rec, loaded, index):
    """Every answer *rec* holds, and what *index* holds, is legal for
    the history over the *loaded* pairs."""
    ops = history(rec)
    assert ops, "no op was traced: were its generators made before the recording?"
    violations = check_history(ops, loaded, index.collect_items())
    assert not violations, violations[:5]


def drive_legal(cluster, index, loaded, *gens):
    """Drive *gens*, then :func:`assert_legal` what they did."""
    with obs.recording() as rec:
        drive(cluster, *gens)
    assert_legal(rec, loaded, index)


def writers_and_readers(clients, writes, write, reads, read_key):
    """Even clients run ``write(client, lane, i)`` for i < *writes*, odd
    ones search ``read_key(rng)`` *reads* times: the op generators."""
    def writer(client, lane):
        for i in range(writes):
            yield from write(client, lane, i)

    def reader(client, seed):
        rng = random.Random(seed)
        for _ in range(reads):
            yield from client.search(read_key(rng))

    return [writer(c, i) if i % 2 == 0 else reader(c, i)
            for i, c in enumerate(clients)]
