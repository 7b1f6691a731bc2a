"""SMART (OSDI '23): the state-of-the-art radix tree on DM.

Re-implemented from the paper's description as an adaptive radix tree
(ART) whose slots are **8-byte words embedding the partial key**, so a
single RDMA CAS installs or replaces a child atomically — SMART's key to
lock-free writes.  Leaves are individual KV blocks (*KV-discrete*), so
point reads fetch exactly one item (amplification factor 1) but the CN
must cache one pointer-bearing node per handful of keys — the high cache
consumption CHIME's analysis targets (503 MB for 60 M keys in the
paper's Figure 14).

Node types follow ART: Node4 / Node16 / Node48 / Node256, selected
adaptively and upgraded out-of-place (allocate bigger node, copy slots,
CAS the parent slot).  Path compression stores up to 8 prefix bytes per
node.  Readers verify the full key stored in the leaf block; a mismatch
on a cached path invalidates the cached nodes and retries remotely
(optimistic path compression).

RDWC (read delegation / write combining) comes from the shared per-CN
combiner, as the CHIME paper applies it to every index.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.core.family import FamilyClientBase, FamilyIndexBase
from repro.errors import IndexError_, LayoutError
from repro.layout import decode_key, decode_value, encode_key, encode_value
from repro.memory import NULL_ADDR
from repro.memory.region import OFFSET_BITS, make_addr

#: Slot word format: [63]=occupied, [62]=leaf, [59..61]=node type,
#: [56]=seal, [48..55]=partial key byte, [0..47]=compressed address.
#: Global addresses pack the MN id above bit 48, so slots carry a
#: *compressed* form — (mn_id << 40 | offset), mn_id < 256, offset < 1 TB.
_OCCUPIED = 1 << 63
_LEAF = 1 << 62
_TYPE_SHIFT = 59
_TYPE_MASK = 0x7 << _TYPE_SHIFT
_PARTIAL_SHIFT = 48
_PARTIAL_MASK = 0xFF << _PARTIAL_SHIFT
_ADDR_MASK = (1 << 48) - 1
_COMPRESSED_OFFSET_BITS = 40
_COMPRESSED_OFFSET_MASK = (1 << _COMPRESSED_OFFSET_BITS) - 1
#: Global-address bits a slot has no room for: the high byte of the MN
#: id and the high byte of the 48-bit offset.
_UNCOMPRESSIBLE = 0xFF << 56 | 0xFF << _COMPRESSED_OFFSET_BITS


def _compress_addr(addr: int) -> int:
    if addr & _UNCOMPRESSIBLE:
        raise LayoutError(f"address {addr:#x} does not fit in a slot")
    return (addr >> OFFSET_BITS << _COMPRESSED_OFFSET_BITS
            | addr & _COMPRESSED_OFFSET_MASK)


def _expand_addr(compressed: int) -> int:
    return make_addr(compressed >> _COMPRESSED_OFFSET_BITS,
                     compressed & _COMPRESSED_OFFSET_MASK)

#: Node type codes and their slot counts.
NODE4, NODE16, NODE48, NODE256 = 0, 1, 2, 3
SLOT_COUNTS = {NODE4: 4, NODE16: 16, NODE48: 48, NODE256: 256}
_UPGRADE = {NODE4: NODE16, NODE16: NODE48, NODE48: NODE256}

#: Structural changes (node upgrade / prefix expansion) *seal* every slot
#: of the node being replaced before copying it: a sealed slot makes any
#: concurrent CAS (whose compare value is the unsealed word) fail, so no
#: install can slip into the old node between the copy and the parent
#: re-point.  Occupied slots get SEAL_BIT or'ed in; empty slots become
#: the EMPTY_SEALED sentinel.  Readers ignore sealing (addresses stay
#: valid); writers that observe a seal back off and retry.
SEAL_BIT = 1 << 56
EMPTY_SEALED = _OCCUPIED | SEAL_BIT | _TYPE_MASK

#: Node header: [type:1][depth:1][prefix_len:1][pad:1][prefix:8] + pad.
HEADER_SIZE = 16

#: One pre-compiled struct per node type: unpacks the full slot array in
#: a single call (decode_node sits on every pointer chase).
_SLOT_STRUCTS = {node_type: struct.Struct(f"<{count}Q")
                 for node_type, count in SLOT_COUNTS.items()}


def pack_slot(partial: int, addr: int, leaf: bool, node_type: int = 0) -> int:
    word = _OCCUPIED | (partial << _PARTIAL_SHIFT) | _compress_addr(addr)
    if leaf:
        word |= _LEAF
    else:
        word |= (node_type << _TYPE_SHIFT) & _TYPE_MASK
    return word


def unpack_slot(word: int) -> Tuple[bool, int, int, bool, int]:
    """Returns (occupied, partial, global addr, is_leaf, node_type)."""
    occupied = bool(word & _OCCUPIED)
    partial = (word & _PARTIAL_MASK) >> _PARTIAL_SHIFT
    addr = _expand_addr(word & _ADDR_MASK)
    is_leaf = bool(word & _LEAF)
    node_type = (word & _TYPE_MASK) >> _TYPE_SHIFT
    return occupied, partial, addr, is_leaf, node_type


def node_size(node_type: int) -> int:
    return HEADER_SIZE + 8 * SLOT_COUNTS[node_type]


@dataclass
class RadixNode:
    """A parsed (possibly cached) radix node."""

    addr: int
    node_type: int
    depth: int
    prefix: bytes
    slots: List[int]  # raw slot words

    @property
    def size(self) -> int:
        return node_size(self.node_type)

    def slot_index_for(self, partial: int) -> Optional[int]:
        """Index of the slot holding *partial*, or None."""
        if self.node_type == NODE256:
            word = self.slots[partial]
            if word & _OCCUPIED and word != EMPTY_SEALED:
                return partial
            return None
        for index, word in enumerate(self.slots):
            if word & _OCCUPIED and word != EMPTY_SEALED and \
                    (word & _PARTIAL_MASK) >> _PARTIAL_SHIFT == partial:
                return index
        return None

    def free_slot_index(self, partial: int) -> Optional[int]:
        if self.node_type == NODE256:
            return None if self.slots[partial] & _OCCUPIED else partial
        for index, word in enumerate(self.slots):
            if not (word & _OCCUPIED):
                return index
        return None

    def has_seal(self) -> bool:
        return any(word & SEAL_BIT for word in self.slots)

    def occupied_slots(self) -> List[Tuple[int, int]]:
        """(partial, unsealed word) pairs, sorted by partial key byte."""
        out = []
        for word in self.slots:
            if word & _OCCUPIED and word != EMPTY_SEALED:
                out.append(((word & _PARTIAL_MASK) >> _PARTIAL_SHIFT,
                            word & ~SEAL_BIT))
        out.sort()
        return out


def encode_node(node: RadixNode) -> bytes:
    out = bytearray(node.size)
    out[0] = node.node_type
    out[1] = node.depth
    out[2] = len(node.prefix)
    out[4:4 + len(node.prefix)] = node.prefix
    _SLOT_STRUCTS[node.node_type].pack_into(out, HEADER_SIZE, *node.slots)
    return bytes(out)


def decode_node(addr: int, data: bytes) -> RadixNode:
    node_type = data[0]
    depth = data[1]
    prefix_len = data[2]
    prefix = bytes(data[4:4 + prefix_len])
    slots = list(_SLOT_STRUCTS[node_type].unpack_from(data, HEADER_SIZE))
    return RadixNode(addr, node_type, depth, prefix, slots)


@dataclass(frozen=True)
class SmartConfig:
    key_size: int = 8
    value_size: int = 8
    #: Update leaves out-of-place (SMART-RCU, for variable-length items)
    #: instead of writing the value in place.
    rcu_updates: bool = False


class SmartIndex(FamilyIndexBase):
    """Host-side state of one SMART tree."""

    def __init__(self, cluster: Cluster,
                 config: Optional[SmartConfig] = None) -> None:
        super().__init__(cluster, config or SmartConfig())
        self.root_addr = NULL_ADDR
        self.root_type = NODE256
        self._internal_bytes = 0
        self._internal_count = 0

    def client(self, ctx: ClientContext) -> "SmartClient":
        return SmartClient(self, ctx)

    @property
    def leaf_size(self) -> int:
        return 8 + self.config.value_size

    # -- bulk load --------------------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]]) -> None:
        pairs = self._checked_pairs(pairs)
        keys = [key for key, _ in pairs]
        values = [value for _, value in pairs]
        self.root_addr = self._host_alloc(node_size(NODE256))
        self.root_type = NODE256
        children = self._build_children(keys, values, 0, len(keys), 0)
        self._write_node(self.root_addr, NODE256, 0, b"", children)
        self.loaded_items = len(pairs)

    def _build_children(self, keys: List[int], values: List[int], lo: int,
                        hi: int, depth: int) -> List[int]:
        """Build, in key order, what hangs off a node branching on key
        byte *depth* over ``keys[lo:hi]`` (sorted, sharing bytes [0,
        depth)); returns the node's slot words in partial-byte order.

        A child is the run of keys sharing byte *depth* (its end found
        by bisection).  Consecutive single-key children are leaves: one
        block run, their slot words computed from its addresses.
        """
        shift = 8 * (7 - depth)
        words: List[int] = []
        leaves = lo  # keys[leaves:pos] are leaves not yet written
        pos = lo
        while pos < hi:
            top = keys[pos] >> shift
            if pos + 1 < hi and keys[pos + 1] >> shift == top:
                words += self._leaf_words(keys, values, leaves, pos, shift)
                end = bisect_left(keys, (top + 1) << shift, pos + 2, hi)
                words.append(self._build_node(keys, values, pos, end,
                                              depth + 1, top & 0xFF))
                pos = leaves = end
            else:
                pos += 1
        words += self._leaf_words(keys, values, leaves, hi, shift)
        return words

    def _leaf_words(self, keys: List[int], values: List[int], lo: int,
                    hi: int, shift: int) -> List[int]:
        if lo == hi:
            return []
        run = keys[lo:hi]
        addrs = self._host_alloc_blocks(run, values[lo:hi])
        return [pack_slot(key >> shift & 0xFF, addr, leaf=True)
                for key, addr in zip(run, addrs)]

    def _build_node(self, keys: List[int], values: List[int], lo: int,
                    hi: int, depth: int, partial: int) -> int:
        """Build the subtree of ``keys[lo:hi]`` (two keys or more,
        sharing bytes [0, depth)); returns the slot word its parent
        files it under *partial* with."""
        # Path compression: the bytes from *depth* on that all keys share.
        branch_depth = (64 - (keys[lo] ^ keys[hi - 1]).bit_length()) // 8
        prefix = encode_key(keys[lo])[depth:branch_depth]
        children = self._build_children(keys, values, lo, hi, branch_depth)
        node_type = NODE4
        while SLOT_COUNTS[node_type] < len(children):
            node_type = _UPGRADE[node_type]
        addr = self._host_alloc(node_size(node_type))
        self._write_node(addr, node_type, depth, prefix, children)
        return pack_slot(partial, addr, leaf=False, node_type=node_type)

    def _write_node(self, addr: int, node_type: int, depth: int,
                    prefix: bytes, children: List[int]) -> None:
        slots = [0] * SLOT_COUNTS[node_type]
        if node_type == NODE256:
            for word in children:
                slots[(word & _PARTIAL_MASK) >> _PARTIAL_SHIFT] = word
        else:
            slots[:len(children)] = children
        self._internal_bytes += node_size(node_type)
        self._internal_count += 1
        self._host_write(addr, encode_node(
            RadixNode(addr, node_type, depth, prefix, slots)))

    # -- host-side inspection -------------------------------------------------------------

    def collect_items(self) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []

        def walk(addr: int, node_type: int) -> None:
            node = decode_node(addr, self._host_read(addr,
                                                     node_size(node_type)))
            for _partial, word in node.occupied_slots():
                _occ, _p, child, is_leaf, child_type = unpack_slot(word)
                if is_leaf:
                    out.append(self._host_read_block(child))
                else:
                    walk(child, child_type)

        if self.root_addr != NULL_ADDR:
            walk(self.root_addr, self.root_type)
        out.sort()
        return out

    def cache_bytes_needed(self) -> int:
        """Bytes to cache every pointer-bearing node (the paper's
        cache-consumption metric for SMART)."""
        total = 0

        def walk(addr: int, node_type: int) -> None:
            nonlocal total
            total += node_size(node_type)
            node = decode_node(addr, self._host_read(addr,
                                                     node_size(node_type)))
            for _partial, word in node.occupied_slots():
                _occ, _p, child, is_leaf, child_type = unpack_slot(word)
                if not is_leaf:
                    walk(child, child_type)

        if self.root_addr != NULL_ADDR:
            walk(self.root_addr, self.root_type)
        return total

    def height(self) -> int:
        def walk(addr: int, node_type: int) -> int:
            node = decode_node(addr, self._host_read(addr,
                                                     node_size(node_type)))
            best = 1
            for _partial, word in node.occupied_slots():
                _occ, _p, child, is_leaf, child_type = unpack_slot(word)
                if not is_leaf:
                    best = max(best, 1 + walk(child, child_type))
            return best

        if self.root_addr == NULL_ADDR:
            return 0
        return walk(self.root_addr, self.root_type)


class SmartClient(FamilyClientBase):
    """Per-client SMART operations (one-sided, lock-free writes)."""

    scan = FamilyClientBase._scan_op

    # -------------------------------------------------------------- plumbing

    def _read_node(self, addr: int, node_type: int,
                   cacheable: bool = True) -> Generator:
        data = yield from self.qp.read(addr, node_size(node_type))
        node = decode_node(addr, data)
        if cacheable:
            self.ctx.cache.put(addr, node, node.size)
        return node

    def _get_node(self, addr: int, node_type: int,
                  use_cache: bool) -> Generator:
        if use_cache:
            cached = self.ctx.cache.get(addr)
            if cached is not None:
                return cached, True
        node = yield from self._read_node(addr, node_type)
        return node, False

    def _read_leaf(self, addr: int) -> Generator:
        data = yield from self.qp.read(addr, self.index.leaf_size)
        return (decode_key(data),
                decode_value(data, 8, size=self.config.value_size))

    # -------------------------------------------------------------- search

    def _search(self, key: int) -> Generator:
        # First pass may use cached nodes; a second pass (after a stale
        # hit) bypasses the cache entirely.
        result = yield from self._search_pass(key, use_cache=True)
        if result is not _STALE:
            return result
        result = yield from self._search_pass(key, use_cache=False)
        assert result is not _STALE
        return result

    def _search_pass(self, key: int, use_cache: bool) -> Generator:
        key_bytes = encode_key(key)
        addr, node_type = self.index.root_addr, self.index.root_type
        depth = 0
        path: List[int] = []
        used_cache = False
        while True:
            node, from_cache = yield from self._get_node(addr, node_type,
                                                         use_cache)
            used_cache = used_cache or from_cache
            path.append(addr)
            depth = node.depth + len(node.prefix)
            if node.prefix and \
                    key_bytes[node.depth:depth] != node.prefix:
                return self._stale_or_none(used_cache, path)
            if depth >= 8:
                return self._stale_or_none(used_cache, path)
            slot = node.slot_index_for(key_bytes[depth])
            if slot is None:
                return self._stale_or_none(used_cache, path)
            word = node.slots[slot]
            _occ, _partial, child, is_leaf, child_type = unpack_slot(word)
            if is_leaf:
                leaf_key, value = yield from self._read_leaf(child)
                if leaf_key != key:
                    return self._stale_or_none(used_cache, path)
                return value
            addr, node_type = child, child_type
            depth += 1

    def _stale_or_none(self, used_cache: bool, path: List[int]):
        """A miss through cached nodes may be stale: invalidate + retry."""
        if used_cache:
            for addr in path:
                self.ctx.cache.invalidate(addr)
            return _STALE
        return None

    # -------------------------------------------------------------- insert / update

    def _insert(self, key: int, value: int) -> Generator:
        return self._upsert(key, value, must_exist=False)

    def _update(self, key: int, value: int) -> Generator:
        return self._upsert(key, value, must_exist=True)

    def _upsert(self, key: int, value: int, must_exist: bool) -> Generator:
        key_bytes = encode_key(key)
        retry = self.retry.start("upsert({})", self.engine, self.ctx.rng,
                                 key)
        while retry.check():
            outcome = yield from self._upsert_pass(key, key_bytes, value,
                                                   must_exist)
            if outcome is not _RETRY:
                return outcome
            yield from retry.backoff(cap=8)

    def _upsert_pass(self, key: int, key_bytes: bytes, value: int,
                     must_exist: bool) -> Generator:
        """One descend-and-CAS attempt; _RETRY on any lost race.

        Writes always descend remotely from the root (fresh nodes): a
        cached route could lead to a node that an upgrade/expansion has
        already disconnected, and a CAS into a disconnected node silently
        loses the write.  This is conservative relative to the real SMART
        (whose write path revalidates cached routes); noted in DESIGN.md.
        The descent tracks the parent slot so structural changes (node
        upgrades, prefix expansions) can re-point it without a search.
        """
        addr, node_type = self.index.root_addr, self.index.root_type
        parent_info = None  # (parent_node, slot_index, slot_word)
        while True:
            node = yield from self._read_node(addr, node_type)
            depth = node.depth + len(node.prefix)
            if node.prefix and key_bytes[node.depth:depth] != node.prefix:
                if must_exist:
                    return False
                done = yield from self._expand_prefix(node, parent_info,
                                                      key_bytes, key, value)
                return True if done else _RETRY
            partial = key_bytes[depth]
            slot = node.slot_index_for(partial)
            if slot is None:
                if must_exist:
                    return False
                done = yield from self._install_leaf(node, parent_info,
                                                     partial, key, value)
                return True if done else _RETRY
            word = node.slots[slot]
            _occ, _p, child, is_leaf, child_type = unpack_slot(word)
            if not is_leaf:
                parent_info = (node, slot, word)
                addr, node_type = child, child_type
                continue
            if word & SEAL_BIT:
                return _RETRY  # a structural change is replacing this node
            leaf_key, _old = yield from self._read_leaf(child)
            if leaf_key == key:
                done = yield from self._write_value(node, slot, word, child,
                                                    key, value)
                return True if done else _RETRY
            if must_exist:
                return False
            done = yield from self._split_leaf_edge(node, slot, word, child,
                                                    leaf_key, key, value)
            return True if done else _RETRY

    def _slot_addr(self, node: RadixNode, slot: int) -> int:
        return node.addr + HEADER_SIZE + 8 * slot

    def _install_leaf(self, node: RadixNode, parent_info, partial: int,
                      key: int, value: int) -> Generator:
        """CAS a fresh leaf into a free slot (upgrading a full node)."""
        if node.has_seal():
            return False  # a structural change is replacing this node
        free = node.free_slot_index(partial)
        if free is None:
            done = yield from self._upgrade_node(node, parent_info, partial,
                                                 key, value)
            return done
        leaf_addr = yield from self._write_block(key, value)
        word = pack_slot(partial, leaf_addr, leaf=True)
        _old, swapped = yield from self.qp.cas(
            self._slot_addr(node, free), 0, word)
        if swapped:
            self.ctx.cache.invalidate(node.addr)
        return swapped

    def _write_value(self, node: RadixNode, slot: int, word: int,
                     leaf_addr: int, key: int, value: int) -> Generator:
        """Update an existing key: in place, or out-of-place (RCU)."""
        if not self.config.rcu_updates:
            yield from self.qp.write(
                leaf_addr + 8, encode_value(value, self.config.value_size))
            return True
        if word & SEAL_BIT:
            return False
        new_leaf = yield from self._write_block(key, value)
        _occ, partial, _a, _l, _t = unpack_slot(word)
        new_word = pack_slot(partial, new_leaf, leaf=True)
        _old, swapped = yield from self.qp.cas(
            self._slot_addr(node, slot), word, new_word)
        if swapped:
            self.ctx.cache.invalidate(node.addr)
        return swapped

    def _split_leaf_edge(self, node: RadixNode, slot: int, word: int,
                         leaf_addr: int, leaf_key: int, key: int,
                         value: int) -> Generator:
        """Two keys collide on one slot: insert a Node4 at the divergence
        byte holding both leaves, then CAS the slot leaf -> node."""
        if word & SEAL_BIT:
            return False
        existing = encode_key(leaf_key)
        mine = encode_key(key)
        depth = node.depth + len(node.prefix) + 1
        divergence = depth
        while divergence < 8 and existing[divergence] == mine[divergence]:
            divergence += 1
        if divergence >= 8:
            raise IndexError_("duplicate key in split path")
        new_leaf = yield from self._write_block(key, value)
        slots = [0] * SLOT_COUNTS[NODE4]
        slots[0] = pack_slot(existing[divergence], leaf_addr, leaf=True)
        slots[1] = pack_slot(mine[divergence], new_leaf, leaf=True)
        branch = RadixNode(NULL_ADDR, NODE4, depth,
                           existing[depth:divergence], slots)
        branch.addr = yield from self._alloc(branch.size)
        yield from self.qp.write(branch.addr, encode_node(branch))
        _occ, partial, _a, _l, _t = unpack_slot(word)
        new_word = pack_slot(partial, branch.addr, leaf=False,
                             node_type=NODE4)
        _old, swapped = yield from self.qp.cas(
            self._slot_addr(node, slot), word, new_word)
        if swapped:
            self.ctx.cache.invalidate(node.addr)
        return swapped

    def _seal_node(self, node: RadixNode) -> Generator:
        """Atomically seal every slot of *node*; returns the node as it
        stood once fully sealed (the authoritative copy source)."""
        for index in range(len(node.slots)):
            current = node.slots[index]
            retry = self.retry.start("seal node {:#x}", self.engine,
                                     self.ctx.rng, node.addr)
            # A set seal bit: another structural op already sealed it.
            while not current & SEAL_BIT and retry.check():
                target = (current | SEAL_BIT) if current & _OCCUPIED \
                    else EMPTY_SEALED
                old, swapped = yield from self.qp.cas(
                    self._slot_addr(node, index), current, target)
                if swapped:
                    break
                current = old  # lost to a concurrent install; retry
        data = yield from self.qp.read(node.addr, node.size)
        return decode_node(node.addr, data)

    def _unseal_node(self, node: RadixNode) -> Generator:
        """Undo sealing after a failed structural change."""
        for index, word in enumerate(node.slots):
            if word == EMPTY_SEALED:
                yield from self.qp.cas(self._slot_addr(node, index),
                                       EMPTY_SEALED, 0)
            elif word & SEAL_BIT:
                yield from self.qp.cas(self._slot_addr(node, index), word,
                                       word & ~SEAL_BIT)

    def _upgrade_node(self, node: RadixNode, parent_info, partial: int,
                      key: int, value: int) -> Generator:
        """Node full: seal it, copy its slots into the next size plus the
        new leaf, then CAS the parent slot to the new node."""
        if node.node_type not in _UPGRADE:
            raise IndexError_("Node256 cannot be full for a new partial")
        if parent_info is None:
            raise IndexError_("the Node256 root is never upgraded")
        parent, parent_slot, parent_word = parent_info
        sealed = yield from self._seal_node(node)
        if sealed.slot_index_for(partial) is not None or \
                sealed.free_slot_index(partial) is not None:
            # The picture changed while sealing (an install landed or a
            # slot was deleted): back off and retry the whole insert.
            yield from self._unseal_node(sealed)
            return False
        new_type = _UPGRADE[node.node_type]
        slots = [0] * SLOT_COUNTS[new_type]
        occupied = sealed.occupied_slots()
        if new_type == NODE256:
            for slot_partial, word in occupied:
                slots[slot_partial] = word
        else:
            for index, (_slot_partial, word) in enumerate(occupied):
                slots[index] = word
        leaf_addr = yield from self._write_block(key, value)
        leaf_word = pack_slot(partial, leaf_addr, leaf=True)
        if new_type == NODE256:
            slots[partial] = leaf_word
        else:
            slots[len(occupied)] = leaf_word
        bigger = RadixNode(NULL_ADDR, new_type, node.depth, node.prefix,
                           slots)
        bigger.addr = yield from self._alloc(bigger.size)
        yield from self.qp.write(bigger.addr, encode_node(bigger))
        _occ, parent_partial, _a, _l, _t = unpack_slot(parent_word)
        new_parent_word = pack_slot(parent_partial, bigger.addr, leaf=False,
                                    node_type=new_type)
        _old, swapped = yield from self.qp.cas(
            self._slot_addr(parent, parent_slot), parent_word,
            new_parent_word)
        if swapped:
            self.ctx.cache.invalidate(parent.addr)
            self.ctx.cache.invalidate(node.addr)
        else:
            yield from self._unseal_node(sealed)
        return swapped

    def _expand_prefix(self, node: RadixNode, parent_info, key_bytes: bytes,
                       key: int, value: int) -> Generator:
        """The key diverges inside *node*'s compressed prefix: create a
        Node4 branching at the divergence, holding the new leaf and a
        re-prefixed copy of *node*."""
        if parent_info is None:
            raise IndexError_("the root has no prefix to expand")
        parent, parent_slot, parent_word = parent_info
        sealed = yield from self._seal_node(node)
        full_prefix = sealed.prefix
        divergence = 0
        while divergence < len(full_prefix) and \
                key_bytes[node.depth + divergence] == full_prefix[divergence]:
            divergence += 1
        if divergence >= len(full_prefix):
            yield from self._unseal_node(sealed)
            return False  # prefix changed under us: retry
        branch_depth = node.depth + divergence
        # Re-prefixed copy of the old node (out-of-place; old node leaks).
        copy_slots = [0 if w == EMPTY_SEALED else (w & ~SEAL_BIT)
                      for w in sealed.slots]
        copy = RadixNode(NULL_ADDR, sealed.node_type, branch_depth + 1,
                         full_prefix[divergence + 1:], copy_slots)
        copy.addr = yield from self._alloc(copy.size)
        yield from self.qp.write(copy.addr, encode_node(copy))
        leaf_addr = yield from self._write_block(key, value)
        slots = [0] * SLOT_COUNTS[NODE4]
        slots[0] = pack_slot(full_prefix[divergence], copy.addr, leaf=False,
                             node_type=copy.node_type)
        slots[1] = pack_slot(key_bytes[branch_depth], leaf_addr, leaf=True)
        branch = RadixNode(NULL_ADDR, NODE4, node.depth,
                           full_prefix[:divergence], slots)
        branch.addr = yield from self._alloc(branch.size)
        yield from self.qp.write(branch.addr, encode_node(branch))
        _occ, parent_partial, _a, _l, _t = unpack_slot(parent_word)
        new_parent_word = pack_slot(parent_partial, branch.addr, leaf=False,
                                    node_type=NODE4)
        _old, swapped = yield from self.qp.cas(
            self._slot_addr(parent, parent_slot), parent_word,
            new_parent_word)
        if swapped:
            self.ctx.cache.invalidate(parent.addr)
            self.ctx.cache.invalidate(node.addr)
        else:
            yield from self._unseal_node(sealed)
        return swapped

    # -------------------------------------------------------------- delete

    def _delete(self, key: int) -> Generator:
        key_bytes = encode_key(key)
        retry = self.retry.start("delete({})", self.engine, self.ctx.rng,
                                 key)
        while retry.check():
            addr, node_type = self.index.root_addr, self.index.root_type
            while True:
                node = yield from self._read_node(addr, node_type)
                depth = node.depth + len(node.prefix)
                if node.prefix and key_bytes[node.depth:depth] != node.prefix:
                    return False
                slot = node.slot_index_for(key_bytes[depth])
                if slot is None:
                    return False
                word = node.slots[slot]
                _occ, _p, child, is_leaf, child_type = unpack_slot(word)
                if not is_leaf:
                    addr, node_type = child, child_type
                    continue
                if word & SEAL_BIT:
                    break  # node being replaced: back off and retry
                leaf_key, _value = yield from self._read_leaf(child)
                if leaf_key != key:
                    return False
                _old, swapped = yield from self.qp.cas(
                    self._slot_addr(node, slot), word, 0)
                if swapped:
                    self.ctx.cache.invalidate(node.addr)
                    return True
                break  # lost a race: retry from the root
            yield from retry.backoff()

    # -------------------------------------------------------------- scan

    def _scan(self, key: int, count: int) -> Generator:
        """Ordered scan via in-order traversal; each item is a dedicated
        leaf READ (batched per node), which is why KV-discrete indexes
        saturate the MN NIC's IOPS on YCSB E (§5.2)."""
        key_bytes = encode_key(key)
        leaf_words: List[int] = []
        yield from self._collect_leaves(self.index.root_addr,
                                        self.index.root_type, key_bytes,
                                        leaf_words, count, tight=True)
        results: List[Tuple[int, int]] = []
        for start in range(0, len(leaf_words), 32):
            batch = leaf_words[start:start + 32]
            requests = [(unpack_slot(w)[2], self.index.leaf_size)
                        for w in batch]
            payloads = yield from self.qp.read_batch(requests)
            for data in payloads:
                item_key = decode_key(data)
                if item_key >= key:
                    results.append((item_key,
                                    decode_value(data, 8,
                                                 size=self.config.value_size)))
        results.sort()
        return results[:count]

    def _collect_leaves(self, addr: int, node_type: int, key_bytes: bytes,
                        out: List[int], count: int, tight: bool) -> Generator:
        """DFS in key order, collecting leaf slot words for keys >= the
        start key.

        *tight* means the path so far equals the start key's prefix, so
        this subtree straddles the start key: children below the key's
        byte are pruned, the equal child stays tight, larger children
        relax.  Once not tight, every key under the subtree qualifies.
        """
        if len(out) >= count + 8:
            return
        node, _from_cache = yield from self._get_node(addr, node_type,
                                                      use_cache=True)
        depth = node.depth + len(node.prefix)
        if tight and node.prefix:
            window = key_bytes[node.depth:depth]
            if node.prefix > window:
                tight = False           # whole subtree above the start key
            elif node.prefix < window:
                return                  # whole subtree below the start key
        for partial, word in node.occupied_slots():
            if len(out) >= count + 8:
                return
            _occ, _p, child, is_leaf, child_type = unpack_slot(word)
            child_tight = tight
            if tight and depth < 8:
                if partial < key_bytes[depth]:
                    continue            # strictly below the start key
                child_tight = partial == key_bytes[depth]
            if is_leaf:
                out.append(word)
            else:
                yield from self._collect_leaves(child, child_type, key_bytes,
                                                out, count, child_tight)


_RETRY = object()
_STALE = object()
