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
from functools import reduce
from operator import or_
from typing import Generator, Iterator, List, Optional, Sequence, Tuple

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

    def client(self, ctx: ClientContext) -> "SmartClient":
        return SmartClient(self, ctx)

    @property
    def leaf_size(self) -> int:
        return 8 + self.config.value_size

    # -- bulk load --------------------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, int]]) -> None:
        pairs = self._checked_pairs(pairs)
        keys, values = pairs.key_column, pairs.value_column
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
        if reduce(or_, addrs) & _UNCOMPRESSIBLE:  # one check for the run
            list(map(_compress_addr, addrs))  # raises naming the first
        # pack_slot(key >> shift & 0xFF, addr, leaf=True), inline.
        return [_OCCUPIED | _LEAF | (key >> shift & 0xFF) << _PARTIAL_SHIFT
                | addr >> OFFSET_BITS << _COMPRESSED_OFFSET_BITS
                | addr & _COMPRESSED_OFFSET_MASK
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
        self._host_write(addr, encode_node(
            RadixNode(addr, node_type, depth, prefix, slots)))

    # -- host-side inspection -------------------------------------------------------------

    def _host_nodes(self) -> Iterator[Tuple[int, RadixNode]]:
        """``(level, node)`` for every node, the root at level 1 (none
        when nothing is loaded)."""
        stack = ([] if self.root_addr == NULL_ADDR
                 else [(1, self.root_addr, self.root_type)])
        while stack:
            level, addr, node_type = stack.pop()
            node = decode_node(addr, self._host_read(addr,
                                                     node_size(node_type)))
            yield level, node
            for _partial, word in node.occupied_slots():
                _occ, _p, child, is_leaf, child_type = unpack_slot(word)
                if not is_leaf:
                    stack.append((level + 1, child, child_type))

    def collect_items(self) -> List[Tuple[int, int]]:
        return sorted(self._host_read_block(unpack_slot(word)[2])
                      for _level, node in self._host_nodes()
                      for _partial, word in node.occupied_slots()
                      if word & _LEAF)

    def sealed_slots(self) -> Iterator[str]:
        for _level, node in self._host_nodes():
            for index, word in enumerate(node.slots):
                if word & SEAL_BIT:
                    yield f"node {node.addr:#x} slot {index}"

    def cache_bytes_needed(self) -> int:
        """Bytes to cache every pointer-bearing node (the paper's
        cache-consumption metric for SMART)."""
        return sum(node.size for _level, node in self._host_nodes())

    def height(self) -> int:
        return max((level for level, _node in self._host_nodes()), default=0)


class SmartClient(FamilyClientBase):
    """Per-client SMART operations (one-sided, lock-free writes)."""

    scan = FamilyClientBase._scan_op

    # -------------------------------------------------------------- plumbing

    def _read_node(self, addr: int, node_type: int) -> Generator:
        data = yield from self.qp.read(addr, node_size(node_type))
        node = decode_node(addr, data)
        self.ctx.cache.put(addr, node, node.size)
        return node

    def _read_leaf(self, addr: int) -> Generator:
        data = yield from self.qp.read(addr, self.index.leaf_size)
        return (decode_key(data),
                decode_value(data, 8, size=self.config.value_size))

    def _descend(self, key_bytes: bytes, use_cache: bool) -> Generator:
        """The one root-to-leaf walk: each node on *key_bytes*' path —
        from the cache with *use_cache*, else READ — until the key
        leaves the tree.

        Returns ``(node, slot, at, trusted)``: *slot* indexes *node*'s
        leaf slot for the key's byte, or is None when that byte has no
        slot or the key diverges inside *node*'s prefix; ``at = (parent,
        slot)`` is the slot pointing at *node* (``(None, None)`` at the
        root); *trusted* lists the walked nodes when a cached one was among
        them — the route may be out of date — and is empty otherwise.
        """
        cache = self.ctx.cache
        addr, node_type = self.index.root_addr, self.index.root_type
        parent = parent_slot = None
        path: List[int] = []
        cached = False
        while True:
            node = cache.get(addr) if use_cache else None
            cached |= node is not None
            if node is None:
                node = yield from self._read_node(addr, node_type)
            path.append(addr)
            depth = node.depth + len(node.prefix)
            if node.prefix and key_bytes[node.depth:depth] != node.prefix:
                slot = None
                break
            slot = node.slot_index_for(key_bytes[depth])
            if slot is None:
                break
            word = node.slots[slot]
            if word & _LEAF:
                break
            parent, parent_slot = node, slot
            addr = _expand_addr(word & _ADDR_MASK)
            node_type = (word & _TYPE_MASK) >> _TYPE_SHIFT
        return node, slot, (parent, parent_slot), path if cached else []

    def _slot_addr(self, node: RadixNode, slot: int) -> int:
        return node.addr + HEADER_SIZE + 8 * slot

    def _cas_slot(self, node: RadixNode, slot: int, old: int, new: int,
                  *stale: int) -> Generator:
        """CAS *node*'s *slot* from *old* to *new*; once it swaps, *node*
        and the *stale* addresses leave the cache."""
        _old, swapped = yield from self.qp.cas(self._slot_addr(node, slot),
                                               old, new)
        if swapped:
            for addr in (node.addr, *stale):
                self.ctx.cache.invalidate(addr)
        return swapped

    def _unlink(self, node: RadixNode, slot: int, new: int) -> Generator:
        """CAS *node*'s leaf *slot* to *new* (delete: 0; RCU: a fresh leaf);
        once it swaps, WRITE the tombstone key 0 over the unlinked leaf for
        stale cached routes to read, re-issued alone while lost."""
        word = node.slots[slot]
        swapped = yield from self._cas_slot(node, slot, word, new)
        if swapped:
            yield from self._until_landed(
                "tombstone", self.qp.write, _expand_addr(word & _ADDR_MASK),
                encode_key(0))
        return swapped

    def _publish(self, new_node: RadixNode, at: Tuple[RadixNode, int],
                 *stale: int) -> Generator:
        """Allocate and WRITE *new_node*, then CAS it into the slot ``at
        = (node, slot)`` under that slot's partial key byte; True once
        it swapped (the *stale* addresses then leave the cache)."""
        new_node.addr = yield from self._alloc(new_node.size)
        yield from self.qp.write(new_node.addr, encode_node(new_node))
        node, slot = at
        word = node.slots[slot]
        new_word = pack_slot(unpack_slot(word)[1], new_node.addr, leaf=False,
                             node_type=new_node.node_type)
        return (yield from self._cas_slot(node, slot, word, new_word, *stale))

    # -------------------------------------------------------------- search

    def _search(self, key: int) -> Generator:
        # A miss through cached nodes may be stale; a tombstone (key 0) is
        # stale on any route.  Either walks again uncached.
        key_bytes = encode_key(key)
        retry = self.retry.start("search({})", self.engine, self.ctx.rng,
                                 key)
        use_cache = True
        while retry.check():
            node, slot, _at, trusted = yield from self._descend(key_bytes,
                                                                use_cache)
            leaf_key = None
            if slot is not None:
                leaf_key, value = yield from self._read_leaf(
                    _expand_addr(node.slots[slot] & _ADDR_MASK))
                if leaf_key == key:
                    return value
            if not self._drop_stale(trusted, True) and leaf_key != 0:
                return None
            use_cache = False

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
        The descent returns the parent slot so structural changes (node
        upgrades, prefix expansions) can re-point it without a search.
        """
        node, slot, at, _stale = yield from self._descend(key_bytes, False)
        if slot is None:
            if must_exist:
                return False
            depth = node.depth + len(node.prefix)
            if key_bytes[node.depth:depth] != node.prefix:
                done = yield from self._expand_prefix(node, at, key_bytes,
                                                      key, value)
            else:
                done = yield from self._install_leaf(node, at, key_bytes[depth],
                                                     key, value)
            return True if done else _RETRY
        word = node.slots[slot]
        if word & SEAL_BIT:
            return _RETRY  # a structural change is replacing this node
        leaf_addr = _expand_addr(word & _ADDR_MASK)
        leaf_key, _old = yield from self._read_leaf(leaf_addr)
        if leaf_key == 0:
            return _RETRY  # a tombstone: unlinked since the walk read it
        if leaf_key == key:
            done = yield from self._write_value(node, slot, leaf_addr, key,
                                                value)
        elif must_exist:
            return False
        else:
            done = yield from self._split_leaf_edge(node, slot, leaf_addr,
                                                    leaf_key, key, value)
        return True if done else _RETRY

    def _install_leaf(self, node: RadixNode, at, partial: int, key: int,
                      value: int) -> Generator:
        """CAS a fresh leaf into a free slot (upgrading a full node)."""
        if node.has_seal():
            return False  # a structural change is replacing this node
        free = node.free_slot_index(partial)
        if free is None:
            return (yield from self._upgrade_node(node, at, partial, key,
                                                  value))
        leaf_addr = yield from self._write_block(key, value)
        return (yield from self._cas_slot(
            node, free, 0, pack_slot(partial, leaf_addr, leaf=True)))

    def _write_value(self, node: RadixNode, slot: int, leaf_addr: int,
                     key: int, value: int) -> Generator:
        """Update an existing key: in place, or out-of-place (RCU)."""
        if not self.config.rcu_updates:
            yield from self.qp.write(
                leaf_addr + 8, encode_value(value, self.config.value_size))
            return True
        new_leaf = yield from self._write_block(key, value)
        return (yield from self._unlink(node, slot, pack_slot(
            unpack_slot(node.slots[slot])[1], new_leaf, leaf=True)))

    def _split_leaf_edge(self, node: RadixNode, slot: int, leaf_addr: int,
                         leaf_key: int, key: int, value: int) -> Generator:
        """Two keys collide on one slot: insert a Node4 at the divergence
        byte holding both leaves, then CAS the slot leaf -> node."""
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
        return (yield from self._publish(branch, (node, slot)))

    def _sealed(self, node: RadixNode, change, *args) -> Generator:
        """The one sealed section: atomically seal every slot of *node*,
        re-read it, and return what ``change(sealed, *args)`` returns
        given that authoritative copy — True once its publish swapped.
        On False the seals are given back; on anything raised (a lost
        verb included, part-way through sealing too) the seals this
        client set, as :meth:`_locked` restores a lock — unless a parked
        (crashed) client is being reclaimed (``GeneratorExit``)."""
        mine = []
        try:
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
                        mine.append((index, target))
                        break
                    current = old  # lost to a concurrent install; retry
            data = yield from self.qp.read(node.addr, node.size)
            sealed = decode_node(node.addr, data)
            done = yield from change(sealed, *args)
        except GeneratorExit:
            raise
        except BaseException:
            yield from self._unseal(node, mine)
            raise
        if not done:
            yield from self._unseal(node, [
                (index, word) for index, word in enumerate(sealed.slots)
                if word & SEAL_BIT])
        return done

    def _unseal(self, node: RadixNode, slots) -> Generator:
        """CAS each ``(slot, sealed word)`` of *slots* back, re-issued
        while lost."""
        for index, word in slots:
            yield from self._until_landed(
                "unseal", self.qp.cas, self._slot_addr(node, index), word,
                0 if word == EMPTY_SEALED else word & ~SEAL_BIT)

    def _upgrade_node(self, node: RadixNode, at, partial: int, key: int,
                      value: int) -> Generator:
        """Node full: seal it, copy its slots into the next size plus the
        new leaf, then CAS the parent slot to the new node."""
        if node.node_type not in _UPGRADE:
            raise IndexError_("Node256 cannot be full for a new partial")
        if at[0] is None:
            raise IndexError_("the Node256 root is never upgraded")
        return (yield from self._sealed(node, self._upgrade_sealed, at,
                                        partial, key, value))

    def _upgrade_sealed(self, sealed: RadixNode, at, partial: int, key: int,
                        value: int) -> Generator:
        if sealed.slot_index_for(partial) is not None or \
                sealed.free_slot_index(partial) is not None:
            # The picture changed while sealing (an install landed or a
            # slot was deleted): back off and retry the whole insert.
            return False
        new_type = _UPGRADE[sealed.node_type]
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
        bigger = RadixNode(NULL_ADDR, new_type, sealed.depth, sealed.prefix,
                           slots)
        return (yield from self._publish(bigger, at, sealed.addr))

    def _expand_prefix(self, node: RadixNode, at, key_bytes: bytes,
                       key: int, value: int) -> Generator:
        """The key diverges inside *node*'s compressed prefix: create a
        Node4 branching at the divergence, holding the new leaf and a
        re-prefixed copy of *node*."""
        if at[0] is None:
            raise IndexError_("the root has no prefix to expand")
        return (yield from self._sealed(node, self._expand_sealed, at,
                                        key_bytes, key, value))

    def _expand_sealed(self, sealed: RadixNode, at, key_bytes: bytes,
                       key: int, value: int) -> Generator:
        full_prefix = sealed.prefix
        divergence = 0
        while divergence < len(full_prefix) and \
                key_bytes[sealed.depth + divergence] == full_prefix[divergence]:
            divergence += 1
        if divergence >= len(full_prefix):
            return False  # prefix changed under us: retry
        branch_depth = sealed.depth + divergence
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
        branch = RadixNode(NULL_ADDR, NODE4, sealed.depth,
                           full_prefix[:divergence], slots)
        return (yield from self._publish(branch, at, sealed.addr))

    # -------------------------------------------------------------- delete

    def _delete(self, key: int) -> Generator:
        key_bytes = encode_key(key)
        retry = self.retry.start("delete({})", self.engine, self.ctx.rng,
                                 key)
        while retry.check():
            node, slot, _at, _stale = yield from self._descend(key_bytes,
                                                               False)
            if slot is None:
                return False
            word = node.slots[slot]
            if not word & SEAL_BIT:  # else its node is being replaced
                leaf_key, _value = yield from self._read_leaf(
                    _expand_addr(word & _ADDR_MASK))
                if leaf_key not in (key, 0):  # 0: a tombstone, walk again
                    return False
                if leaf_key and (yield from self._unlink(node, slot, 0)):
                    return True
            yield from retry.backoff()  # sealed, or lost a race

    # -------------------------------------------------------------- scan

    def _scan_once(self, key: int, count: int) -> Generator:
        """The pairs >= *key* of the leaves an in-order walk collects;
        each item is a dedicated leaf READ (batched per 32), which is why
        KV-discrete indexes saturate the MN NIC's IOPS on YCSB E (§5.2)."""
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
        return results

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
        node = self.ctx.cache.get(addr)
        if node is None:
            node = yield from self._read_node(addr, node_type)
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
