"""Sherman (SIGMOD '22): the state-of-the-art B+ tree on DM.

Re-implemented from its paper's description, with the enhancement the
CHIME authors apply for fairness (§5.1): the original bookend versioning
is replaced by **two-level cache-line versions** (the same scheme CHIME
uses, shared via :mod:`repro.layout.versions`).

Structure: a B-link tree whose leaves are *sorted arrays* of KV entries.
Reads fetch the **entire leaf node** — the defining read amplification of
KV-contiguous indexes that CHIME attacks.  Updates are fine-grained
(entry write + EV bump, combined with the unlocking WRITE); inserts shift
the sorted array and therefore rewrite the node (a node write with NV
bump).  Sherman's CN-local lock table is modelled through
:class:`~repro.cluster.compute.ComputeNode.local_lock`, shared by every
index here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.btree_base import (
    BTreeClientBase,
    BTreeIndexBase,
    LeafRef,
    MAX_CHASE,
    TraversalError,
)
from repro.errors import LayoutError, TornReadError
from repro.layout import (
    MAX_KEY,
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
from repro.layout import versions
from repro.layout.image import ImageEncoder, packer_values
from repro.layout.versions import LINE, bump_nibble, raw_size
from repro.memory import NULL_ADDR
from repro.memory.region import CACHE_LINE


@dataclass(frozen=True)
class ShermanConfig:
    """Sherman parameters (paper default: span 64, 8 B keys/values)."""

    span: int = 64
    key_size: int = 8
    value_size: int = 8
    #: Store an 8-byte pointer per entry with the value in an indirect
    #: block (the Marlin baseline layers on this).
    indirect_values: bool = False
    #: Target leaf fill fraction for bulk loading.
    bulk_load_factor: float = 0.7


class ShermanLeafLayout:
    """Sorted-array leaf: header + entries, striped with versions.

    Header: ``[version:1][valid:1][count:2][fence_low:k][fence_high:k]
    [sibling:8]``; entry: ``[version:1][key:k][value:v]``.
    """

    OFF_VERSION = 0
    OFF_VALID = 1
    OFF_COUNT = 2

    def __init__(self, span: int, key_size: int, value_size: int) -> None:
        self.span = span
        self.key_size = key_size
        self.value_size = value_size
        # Sizes and field offsets are all functions of the constructor
        # arguments; precompute them once — they sit on every leaf access.
        self.header_size = 1 + 1 + 2 + 2 * key_size + 8
        self.entry_size = 1 + key_size + value_size
        self.logical_size = self.header_size + span * self.entry_size
        self.raw_size = raw_size(self.logical_size)
        padded = -(-self.raw_size // CACHE_LINE) * CACHE_LINE
        self.total_size = padded + CACHE_LINE
        self.lock_offset = self.total_size - CACHE_LINE
        self.off_fence_low = 4
        self.off_fence_high = 4 + key_size
        self.off_sibling = 4 + 2 * key_size
        # Logical offset of every entry's leading version byte — the
        # consistency check reads all of them on every leaf fetch — and
        # the matching raw offsets for full-image (base 0) views, which
        # let the check scan the buffer without extracting the payload.
        self.entry_version_offsets = tuple(
            self.header_size + index * self.entry_size
            for index in range(span))
        self.entry_version_raw_offsets = tuple(
            versions.raw_of(off) for off in self.entry_version_offsets)
        # Image encoder (:meth:`ShermanLeafView.compose`): every field
        # of the leaf from two flat source vectors, one per byte order —
        # [version byte, valid, count, sibling, *values] and [fence_low,
        # fence_high, *keys].
        value_code = "Q" if value_size >= 8 else f"{value_size}s"
        entries = list(enumerate(self.entry_version_offsets))
        self.encoder = ImageEncoder(
            [(self.OFF_VERSION, "BBH", (0, 1, 2)),
             (self.off_sibling, "Q", (3,))]
            + [(off, "B", (0,)) for _index, off in entries]
            + [(off + 1 + key_size, value_code, (4 + index,))
               for index, off in entries],
            [(self.off_fence_low, "Q", (0,)), (self.off_fence_high, "Q", (1,))]
            + [(off + 1, "Q", (2 + index,)) for index, off in entries],
            self.logical_size)

    def entry_offset(self, index: int) -> int:
        return self.header_size + index * self.entry_size


class ShermanLeafView:
    """Accessor over a Sherman leaf image."""

    def __init__(self, layout: ShermanLeafLayout, span: StripedSpan) -> None:
        self.layout = layout
        self.span = span

    @classmethod
    def compose(cls, layout: ShermanLeafLayout,
                items: Sequence[Tuple[int, int]], sibling: int,
                fence_low: int, fence_high: int, nv: int) -> "ShermanLeafView":
        """A freshly written leaf holding the sorted *items*: every line,
        header and entry version byte is (*nv*, EV 0) — node-write
        semantics — and entries past the last item are empty.  Composed
        by the layout's compiled encoder; the field-by-field way is its
        oracle (``tests/oracles.py``, ``compose_sorted_leaf``)."""
        spare = layout.span - len(items)
        if spare < 0:
            raise LayoutError(
                f"{len(items)} items do not fit a leaf of span {layout.span}")
        version = pack_version(nv, 0)
        keys = [key for key, _value in items]
        values = [value for _key, value in items]
        keys += [0] * spare
        values += [0] * spare
        return cls(layout, StripedSpan(layout.encoder.encode(
            [version, 1, len(items), sibling,
             *packer_values(values, layout.value_size)],
            [fence_low, fence_high, *keys], version), 0))

    # -- field access ---------------------------------------------------------

    @property
    def count(self) -> int:
        return decode_u16(self.span.read_logical(self.layout.OFF_COUNT, 2))

    @property
    def fence_low(self) -> int:
        return decode_key(self.span.read_logical(self.layout.off_fence_low,
                                                 self.layout.key_size))

    @property
    def fence_high(self) -> int:
        return decode_key(self.span.read_logical(self.layout.off_fence_high,
                                                 self.layout.key_size))

    @property
    def sibling(self) -> int:
        return decode_u64(self.span.read_logical(self.layout.off_sibling, 8))

    @property
    def nv(self) -> int:
        byte = self.span.read_logical(self.layout.OFF_VERSION, 1)[0]
        return unpack_version(byte)[0]

    def entry(self, index: int) -> Tuple[int, int]:
        off = self.layout.entry_offset(index)
        data = self.span.read_logical(off + 1,
                                      self.layout.key_size
                                      + self.layout.value_size)
        return (decode_key(data),
                decode_value(data, self.layout.key_size,
                             size=self.layout.value_size))

    def items(self) -> List[Tuple[int, int]]:
        layout = self.layout
        payload = self.span.read_logical(0, layout.logical_size)
        count = decode_u16(payload, layout.OFF_COUNT)
        header = layout.header_size
        entry = layout.entry_size
        key_size = layout.key_size
        value_size = layout.value_size
        return [(decode_key(payload, header + i * entry + 1),
                 decode_value(payload, header + i * entry + 1 + key_size,
                              size=value_size))
                for i in range(count)]

    def write_entry_value(self, index: int, key: int, value: int) -> None:
        """Fine-grained entry update: payload + EV bump in lockstep."""
        layout = self.layout
        off = layout.entry_offset(index)
        byte = self.span.read_logical(off, 1)[0]
        nv, ev = unpack_version(byte)
        self.span.write_logical(off, bytes([pack_version(nv,
                                                         bump_nibble(ev))]))
        self.span.bump_entry_versions(off, layout.entry_size)
        self.span.write_logical(off + 1, encode_key(key))
        self.span.write_logical(off + 1 + layout.key_size,
                                encode_value(value, layout.value_size))

    def entry_sub_span(self, index: int) -> Tuple[int, bytes]:
        return self.span.sub_span(self.layout.entry_offset(index),
                                  self.layout.entry_size)

    def entry_key(self, index: int) -> int:
        """Just the key of one entry — skips the value decode."""
        return decode_key(self.span.read_logical(
            self.layout.entry_offset(index) + 1, self.layout.key_size))

    def find(self, key: int) -> Optional[int]:
        """Binary search the sorted entries; returns the index or None."""
        lo, hi = 0, self.count - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            mid_key = self.entry_key(mid)
            if mid_key == key:
                return mid
            if mid_key < key:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    def nv_values(self) -> List[int]:
        # Sherman views always wrap a full-node image (whole-leaf reads),
        # so one bulk payload extraction replaces span+1 tiny reads.
        layout = self.layout
        payload = self.span.read_logical(0, layout.logical_size)
        values = self.span.nv_nibbles()
        values.append((payload[layout.OFF_VERSION] >> 4) & 0xF)
        values.extend([(payload[off] >> 4) & 0xF
                       for off in layout.entry_version_offsets])
        return values

    def is_consistent(self) -> bool:
        span = self.span
        if span.base != 0:
            return len(set(self.nv_values())) <= 1
        # Full-image fast path: scan NV nibbles straight off the raw
        # buffer — no payload extraction, no intermediate lists.  Runs
        # once per fetched leaf, over every line and entry version byte.
        data = span.data
        first = data[0] >> 4
        for pos in range(LINE, len(data), LINE):
            if data[pos] >> 4 != first:
                return False
        if data[1] >> 4 != first:  # header version byte (raw offset 1)
            return False
        for pos in self.layout.entry_version_raw_offsets:
            if data[pos] >> 4 != first:
                return False
        return True


class ShermanIndex(BTreeIndexBase):
    """Host-side state of a Sherman tree."""

    def __init__(self, cluster: Cluster,
                 config: Optional[ShermanConfig] = None) -> None:
        super().__init__(cluster, config or ShermanConfig())
        entry_value = 8 if self.config.indirect_values \
            else self.config.value_size
        self.leaf_layout = ShermanLeafLayout(self.config.span,
                                             self.config.key_size,
                                             entry_value)

    def client(self, ctx: ClientContext) -> "ShermanClient":
        return ShermanClient(self, ctx)

    # -- bulk load ----------------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]]) -> None:
        config = self.config
        layout = self.leaf_layout
        pairs = self._checked_pairs(pairs)
        per_leaf = max(1, int(config.span * config.bulk_load_factor))
        chunks = [pairs[i:i + per_leaf]
                  for i in range(0, len(pairs), per_leaf)] or [[]]
        addrs = [self._host_alloc(layout.total_size) for _ in chunks]
        bounds = [0] + [c[0][0] for c in chunks[1:]] + [MAX_KEY]
        level1 = []
        for index, chunk in enumerate(chunks):
            stored = chunk
            if config.indirect_values:
                keys = [key for key, _value in chunk]
                stored = list(zip(keys, self._host_alloc_blocks(
                    keys, [value for _key, value in chunk])))
            sibling = addrs[index + 1] if index + 1 < len(addrs) else NULL_ADDR
            view = ShermanLeafView.compose(layout, stored, sibling,
                                           bounds[index], bounds[index + 1],
                                           nv=0)
            self._host_write(addrs[index], bytes(view.span.data))
            level1.append((bounds[index], addrs[index]))
        self.loaded_items = len(pairs)
        self._build_internal_levels(level1)

    # -- host-side inspection --------------------------------------------------------

    def collect_items(self) -> List[Tuple[int, int]]:
        layout = self.leaf_layout
        out: List[Tuple[int, int]] = []
        for addr in self.leaf_addrs():
            raw = self._host_read(addr, layout.raw_size)
            view = ShermanLeafView(layout, StripedSpan(raw, 0))
            for key, value in view.items():
                if self.config.indirect_values:
                    value = self._host_read_block(value)[1]
                out.append((key, value))
        out.sort()
        return out


class ShermanClient(BTreeClientBase):
    """Per-client Sherman operations."""

    def __init__(self, index: ShermanIndex, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
        self.layout = index.leaf_layout

    # -------------------------------------------------------------- leaf IO

    def _read_leaf(self, addr: int) -> Generator:
        layout = self.layout
        retry = self.retry.start("leaf read {:#x}", self.engine,
                                 self.ctx.rng, addr)
        while retry.check():
            raw = yield from self.qp.read(addr, layout.raw_size)
            view = ShermanLeafView(layout, StripedSpan(raw, 0))
            if view.is_consistent():
                return view
            self.qp.stats.retries += 1
            yield from retry.backoff()

    def _leaf_for(self, ref: LeafRef, key: int) -> Generator:
        """Fetch the leaf, applying cache and half-split validation."""
        leaf_addr = ref.leaf_addr
        from_cache = ref.from_cache
        for _hop in range(MAX_CHASE):
            view = yield from self._read_leaf(leaf_addr)
            if view.fence_low <= key < view.fence_high:
                return leaf_addr, view
            if key < view.fence_low:
                if from_cache and ref.parent is not None:
                    self.ctx.cache.invalidate(ref.parent.addr)
                return None, None  # stale route: retraverse
            if view.sibling == NULL_ADDR:
                return leaf_addr, view
            if from_cache and ref.parent is not None:
                self.ctx.cache.invalidate(ref.parent.addr)
            leaf_addr = view.sibling
            from_cache = False
        raise TraversalError("leaf sibling chase exceeded bound")

    # -------------------------------------------------------------- search

    def _search(self, key: int) -> Generator:
        retry = self.retry.start("search({})", self.engine, self.ctx.rng,
                                 key)
        while retry.check():
            ref = yield from self._locate_leaf(key)
            leaf_addr, view = yield from self._leaf_for(ref, key)
            if view is None:
                continue
            index = view.find(key)
            if index is None:
                return None
            _k, value = view.entry(index)
            if self.config.indirect_values:
                value = yield from self._read_block(value, key)
            return value

    # -------------------------------------------------------------- writes

    def _insert(self, key: int, value: int) -> Generator:
        return self._write_leaf(key, value, "insert")

    def _update(self, key: int, value: int) -> Generator:
        return self._write_leaf(key, value, "update")

    def _delete(self, key: int) -> Generator:
        """Clear by rewriting the leaf without the key (no merges)."""
        return self._write_leaf(key, 0, "delete")

    def _write_leaf(self, key: int, value: int, op: str) -> Generator:
        """One locked leaf write.

        ``update`` is fine-grained (entry write + EV bump); ``insert``
        (an upsert) and ``delete`` shift the sorted array and therefore
        rewrite the node (NV bump), splitting it first when full.  The
        data write and the unlock ride one doorbell batch.
        """
        layout = self.layout
        stored = value
        if op != "delete" and self.config.indirect_values:
            # Before the lock, not under it: an allocation RPC can queue
            # on the MN CPU for most of a lock lease.
            stored = yield from self._write_block(key, value)
        retry = self.retry.start("{}({})", self.engine, self.ctx.rng, op,
                                 key)
        while retry.check():
            ref = yield from self._locate_leaf(key)
            lock_addr = ref.leaf_addr + layout.lock_offset
            yield from self._lock(lock_addr, zero_rest=False)
            held = True
            try:
                leaf_addr, view = yield from self._leaf_for(ref, key)
                moved = view is None or leaf_addr != ref.leaf_addr
                index = None if moved else view.find(key)
                if moved or (index is None and op != "insert"):
                    held = False
                    yield from self._unlock_remote(lock_addr)
                    if moved:
                        # Routed elsewhere while locking this node:
                        # retry from the top (rare).
                        continue
                    return False
                split = None
                if op == "update":
                    view.write_entry_value(index, key, stored)
                    raw_off, raw_bytes = view.entry_sub_span(index)
                    writes = [(leaf_addr + raw_off, raw_bytes)]
                else:
                    items = view.items()
                    if op == "delete":
                        items.pop(index)
                    elif index is not None:
                        items[index] = (key, stored)
                    else:
                        items.append((key, stored))
                        items.sort()
                    if len(items) > layout.span:
                        split, new_view = yield from self._split_right_half(
                            view, items)
                    else:
                        new_view = ShermanLeafView.compose(
                            layout, items, view.sibling, view.fence_low,
                            view.fence_high, nv=bump_nibble(view.nv))
                    writes = [(leaf_addr, bytes(new_view.span.data))]
                writes.extend(self._unlock_writes(lock_addr))
                held = False
                yield from self.qp.write_batch(writes)
                if split is None:
                    return True
                yield from self._propagate_split(ref.parent, 1, leaf_addr,
                                                 *split)
                # ... and retry the insert after the split.
            except GeneratorExit:
                # A parked (crashed) client being reclaimed must not
                # yield restore verbs — its node is dead.
                raise
            except BaseException:
                if held:
                    yield from self._restore_unlock(lock_addr)
                raise
            finally:
                self._release_local(lock_addr)

    def _split_right_half(self, view: ShermanLeafView,
                          items: List[Tuple[int, int]]) -> Generator:
        """With the overfull leaf locked: write the new right sibling;
        returns ``((pivot, new_addr), left_view)`` — the caller publishes
        the left half (sibling -> new node) batched with its unlock."""
        layout = self.layout
        mid = len(items) // 2
        pivot = items[mid][0]
        new_addr = yield from self._alloc(layout.total_size)
        right_view = ShermanLeafView.compose(
            layout, items[mid:], view.sibling, pivot, view.fence_high, nv=0)
        yield from self.qp.write_batch([
            (new_addr, bytes(right_view.span.data)),
            (new_addr + layout.lock_offset, encode_u64(0)),
        ])
        left_view = ShermanLeafView.compose(
            layout, items[:mid], new_addr, view.fence_low, pivot,
            nv=bump_nibble(view.nv))
        return (pivot, new_addr), left_view

    # -------------------------------------------------------------- scan

    def _scan_leaf(self, raw: bytes, key: int):
        """One leaf of :meth:`BTreeClientBase._scan_once`'s batch."""
        view = ShermanLeafView(self.layout, StripedSpan(raw, 0))
        if not view.is_consistent():
            raise TornReadError("leaf node-level versions disagree")
        return [pair for pair in view.items() if pair[0] >= key], view.sibling
