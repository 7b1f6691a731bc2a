"""Variable-length keys and values on CHIME (paper §4.5).

Following PACTree's approach as the paper describes: the **first 8 bytes
of the key act as a fingerprint** stored in the leaf entry, and the full
key plus value live in an indirect block.  Blocks of keys that collide on
the fingerprint are **chained**; a lookup walks (and a colliding insert
extends) the chain, comparing full keys.  Collisions are rare for real
key distributions, so the chain is almost always one block long.

Block layout::

    [next: 8][key_len: 2][value_len: 2][pad: 4][key bytes][value bytes]

The leaf entry's 8-byte value field holds the chain head pointer, managed
through the plain (non-indirect) CHIME machinery — the pointer *is* the
stored value, so every leaf-level protocol (locking, versions, hopscotch
bitmaps) applies unchanged.  Chain surgery happens under the leaf lock.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.compute import ClientContext
from repro.config import ChimeConfig
from repro.core.chime import ChimeClient, ChimeIndex, LockGuard, OpResult, _DONE
from repro.core.nodes import LeafNodeView
from repro.errors import IndexError_
from repro.layout import decode_u16, encode_u16, encode_u64, decode_u64
from repro.memory import NULL_ADDR


class _AbortInsert(Exception):
    """Raised when a delete raced its fingerprint out of existence."""

#: Block header: next pointer + key/value lengths + padding.
BLOCK_HEADER = 16

#: First read of a block covers the header plus this many payload bytes;
#: longer key+value pairs need one follow-up READ.
FIRST_READ_PAYLOAD = 64


def fingerprint_of(key: bytes) -> int:
    """First 8 key bytes as a big-endian integer (order-preserving for
    the prefix); clamped to >= 1 because entry key 0 means empty."""
    if not key:
        raise IndexError_("empty keys are not supported")
    prefix = key[:8].ljust(8, b"\x00")
    value = int.from_bytes(prefix, "big")
    return value if value else 1


def encode_block(next_ptr: int, key: bytes, value: bytes) -> bytes:
    return (encode_u64(next_ptr) + encode_u16(len(key))
            + encode_u16(len(value)) + bytes(4) + key + value)


def decode_block_header(data: bytes) -> Tuple[int, int, int]:
    """(next_ptr, key_len, value_len) from the first 16 bytes."""
    return decode_u64(data, 0), decode_u16(data, 8), decode_u16(data, 10)


class VarKeyChimeIndex(ChimeIndex):
    """CHIME with bytes keys/values via fingerprint + block chains."""

    def __init__(self, cluster: Cluster, span: int = 64,
                 neighborhood: int = 8, hotspot_bytes: int = 1 << 19,
                 **chime_kwargs) -> None:
        config = ChimeConfig(span=span, neighborhood=neighborhood,
                             value_size=8, indirect_values=False,
                             hotspot_bytes=hotspot_bytes, **chime_kwargs)
        super().__init__(cluster, config)

    def client(self, ctx: ClientContext) -> "VarKeyChimeClient":
        return VarKeyChimeClient(self, ctx)

    # -- bulk load -----------------------------------------------------------------

    def bulk_load_var(self, pairs: Sequence[Tuple[bytes, bytes]]) -> None:
        """Load (key bytes, value bytes) pairs; keys must be unique."""
        chains = {}
        ordered = sorted(pairs, key=lambda kv: kv[0])
        for key, value in ordered:
            fp = fingerprint_of(key)
            chains.setdefault(fp, []).append((key, value))
        fp_pairs = []
        for fp in sorted(chains):
            head = NULL_ADDR
            for key, value in reversed(chains[fp]):
                block = encode_block(head, key, value)
                addr = self._host_alloc(len(block))
                self._host_write(addr, block)
                head = addr
            fp_pairs.append((fp, head))
        self.bulk_load(fp_pairs)
        self.loaded_items = len(ordered)

    # -- host-side inspection ---------------------------------------------------------

    def collect_var_items(self) -> List[Tuple[bytes, bytes]]:
        out: List[Tuple[bytes, bytes]] = []
        for _fp, head in self.collect_items():
            chain = head
            while chain != NULL_ADDR:
                header = self._host_read(chain, BLOCK_HEADER)
                next_ptr, key_len, value_len = decode_block_header(header)
                payload = self._host_read(chain + BLOCK_HEADER,
                                          key_len + value_len)
                out.append((payload[:key_len], payload[key_len:]))
                chain = next_ptr
        out.sort()
        return out


class VarKeyChimeClient(ChimeClient):
    """Bytes-keyed operations over the fingerprint-indexed tree.

    The inherited integer-keyed methods operate on fingerprints; the
    ``*_var`` methods below are the public API.
    """

    def __init__(self, index: VarKeyChimeIndex, ctx: ClientContext) -> None:
        super().__init__(index, ctx)
        #: Per-operation chaining context (one op in flight per client).
        self._pending_key: Optional[bytes] = None
        self._pending_value: Optional[bytes] = None

    # ---------------------------------------------------------------- public API

    def search_var(self, key: bytes) -> Generator:
        """Lookup by full key; returns the value bytes or None."""
        fp = fingerprint_of(key)
        head = yield from self.search(fp)
        if head is None:
            return None
        found = yield from self._walk_chain(head, key)
        if found is None:
            return None
        _addr, _prev, _next_ptr, value = found
        return value

    def insert_var(self, key: bytes, value: bytes) -> Generator:
        """Insert or overwrite (upsert) by full key."""
        fp = fingerprint_of(key)
        self._pending_key = key
        self._pending_value = value
        try:
            result = yield from self.insert(fp, 0)  # value patched below
            return result
        finally:
            self._pending_key = None
            self._pending_value = None

    def update_var(self, key: bytes, value: bytes) -> Generator:
        """Update an existing key; returns False when absent."""
        head = yield from self.search(fingerprint_of(key))
        if head is None:
            return False
        found = yield from self._walk_chain(head, key)
        if found is None:
            return False
        result = yield from self.insert_var(key, value)
        return result

    def delete_var(self, key: bytes) -> Generator:
        """Remove one key from its fingerprint chain."""
        fp = fingerprint_of(key)
        head = yield from self.search(fp)
        if head is None:
            return False
        # Chain surgery happens under the leaf lock via the duplicate
        # hook: mark the pending op as a delete.
        self._pending_key = key
        self._pending_value = None
        try:
            result = yield from self.insert(fp, 0)
            return result
        except _AbortInsert:
            return False  # the fingerprint vanished while we locked
        finally:
            self._pending_key = None
            self._pending_value = None

    # ---------------------------------------------------------------- chain IO

    def _read_chain_block(self, addr: int) -> Generator:
        """(next_ptr, key, value) of one block; 1 READ for short blocks."""
        data = yield from self.qp.read(addr,
                                       BLOCK_HEADER + FIRST_READ_PAYLOAD)
        next_ptr, key_len, value_len = decode_block_header(data)
        need = key_len + value_len
        if need > FIRST_READ_PAYLOAD:
            rest = yield from self.qp.read(
                addr + BLOCK_HEADER + FIRST_READ_PAYLOAD,
                need - FIRST_READ_PAYLOAD)
            payload = data[BLOCK_HEADER:] + rest
        else:
            payload = data[BLOCK_HEADER:BLOCK_HEADER + need]
        return next_ptr, bytes(payload[:key_len]), bytes(payload[key_len:])

    def _walk_chain(self, head: int, key: bytes) -> Generator:
        """Find *key*'s block; returns (addr, prev_addr, next_ptr, value)."""
        prev = NULL_ADDR
        addr = head
        guard = 0
        while addr != NULL_ADDR and guard < 1024:
            guard += 1
            next_ptr, block_key, value = yield from self._read_chain_block(addr)
            if block_key == key:
                return addr, prev, next_ptr, value
            prev = addr
            addr = next_ptr
        return None

    def _write_chain_block(self, next_ptr: int, key: bytes,
                           value: bytes) -> Generator:
        data = encode_block(next_ptr, key, value)
        addr = yield from self._alloc(len(data))
        yield from self.qp.write(addr, data)
        return addr

    # ---------------------------------------------------------------- hooks

    def _stored_value_for_insert(self, fp: int, value: int) -> Generator:
        """A brand-new fingerprint stores a one-block chain head."""
        if self._pending_key is None:
            result = yield from super()._stored_value_for_insert(fp, value)
            return result
        if self._pending_value is None:
            raise _AbortInsert()  # delete found no fingerprint entry
        addr = yield from self._write_chain_block(
            NULL_ADDR, self._pending_key, self._pending_value)
        return addr

    def _handle_duplicate(self, guard: LockGuard, view: LeafNodeView,
                          leaf_addr: int, position: int, key: int,
                          value: int, argmax: int,
                          vacancy: int) -> Generator:
        """The fingerprint already exists: chain surgery under the lock.

        * exact key present  -> out-of-place replace (or unlink on delete)
        * fingerprint collision -> prepend a new block to the chain
        """
        if self._pending_key is None:
            # Integer-keyed use (e.g. internal retries): default upsert.
            result = yield from super()._handle_duplicate(
                guard, view, leaf_addr, position, key, value, argmax,
                vacancy)
            return result
        head = view.entry(position).value
        found = yield from self._walk_chain(head, self._pending_key)
        deleting = self._pending_value is None
        new_head = head
        writes = []
        if found is not None:
            addr, prev, next_ptr, _old_value = found
            if deleting:
                replacement = next_ptr
            else:
                replacement = yield from self._write_chain_block(
                    next_ptr, self._pending_key, self._pending_value)
            if prev == NULL_ADDR:
                new_head = replacement
            else:
                writes.append((prev, encode_u64(replacement)))
        elif deleting:
            yield from self._unlock_remote(guard.lock_addr,
                                           guard.release_word())
            return OpResult(_DONE, found=False)
        else:
            new_head = yield from self._write_chain_block(
                head, self._pending_key, self._pending_value)
        if new_head != head:
            if new_head == NULL_ADDR:
                # Chain empty: clear the entry and its home bitmap bit.
                home = self.home_of(key)
                self._remove_entry(view, home, position)
                positions = {position, home}
                vacancy &= ~(1 << self.index.vacancy_map.bit_of(position))
                self.hotspots.invalidate(leaf_addr, position)
            else:
                view.write_entry(position, key, new_head)
                positions = {position}
            writes.extend(self._entry_writes(leaf_addr, view, positions))
        writes.extend(self._unlock_writes(
            guard.lock_addr, guard.release_word(argmax, vacancy)))
        yield from self.qp.write_batch(writes)
        return OpResult(_DONE, found=True)