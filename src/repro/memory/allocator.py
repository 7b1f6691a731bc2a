"""Memory-pool allocation.

The paper's allocation scheme (§4.2.2): each client asks a memory node for
a 16 MB chunk via RPC, then carves node-sized pieces out of it locally.
:class:`BumpAllocator` is the MN-side chunk source; :class:`ChunkAllocator`
is the client-side sub-allocator.  Chunk RPCs are rare, so the weak MN CPU
is off the critical path — exactly the property the paper relies on.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.errors import AllocationError
from repro.memory.region import CACHE_LINE, make_addr

#: Chunk handed to a client per allocation RPC.  The paper uses 16 MB on
#: 64 GB MNs; scaled down with the simulated region so many clients fit.
DEFAULT_CHUNK_SIZE = 1 << 18


class BumpAllocator:
    """MN-side monotonic allocator over one memory region.

    Offset 0 is reserved so that the packed global address 0 can serve as
    the null pointer; allocation starts at one cache line.
    """

    def __init__(self, mn_id: int, region_size: int,
                 start: int = CACHE_LINE) -> None:
        if start <= 0:
            raise AllocationError("start offset must leave address 0 unused")
        self.mn_id = mn_id
        self.region_size = region_size
        self._next = start

    @property
    def bytes_used(self) -> int:
        """Bytes handed out so far (including the reserved prefix)."""
        return self._next

    def alloc(self, size: int, align: int = CACHE_LINE) -> int:
        """Reserve *size* bytes; returns a global address.

        Raises :class:`AllocationError` when the region is exhausted —
        experiments size regions up front, so hitting this is a bug.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        if align & (align - 1):
            raise AllocationError(f"alignment must be a power of two: {align}")
        offset = (self._next + align - 1) & ~(align - 1)
        if offset + size > self.region_size:
            raise AllocationError(
                f"MN {self.mn_id} out of memory: need {size} bytes at "
                f"{offset}, region is {self.region_size}")
        self._next = offset + size
        return make_addr(self.mn_id, offset)


class PartitionedAllocator:
    """Per-shard root-pointer slots over the per-MN :class:`BumpAllocator`
    pool.

    The key space is carved into contiguous shards by a
    :class:`~repro.cluster.shards.ShardMap`, each homed on one MN.
    Each shard gets a **root-pointer slot** there: an 8-byte word holding
    the shard sub-tree's root address, updated by remote CAS exactly
    like the legacy global root word.  The first shard homed on an MN
    reuses that MN's reserved word at offset 8 (so the single-shard
    slot *is* the legacy ``ROOT_PTR_OFFSET`` word); later shards on the
    same MN take the remaining reserved words below the first cache
    line, then fall back to bump-allocated lines.
    """

    #: Offset of the first root slot inside each MN's reserved line
    #: (mirrors ``repro.core.btree_base.ROOT_PTR_OFFSET``).
    FIRST_SLOT_OFFSET = 8

    def __init__(self, mns: Dict[int, object], shard_map) -> None:
        self._mns = mns
        self.shard_map = shard_map
        self._root_slots: Dict[int, int] = {}
        self._next_slot: Dict[int, int] = {
            mn_id: self.FIRST_SLOT_OFFSET for mn_id in mns}

    def root_addr(self, shard: int) -> int:
        """The global address of *shard*'s root-pointer slot on its home
        MN, assigned on first request and stable afterwards."""
        if shard in self._root_slots:
            return self._root_slots[shard]
        mn_id = self.shard_map.mn_of(shard)
        offset = self._next_slot[mn_id]
        if offset + 8 <= CACHE_LINE:
            self._next_slot[mn_id] = offset + 8
            addr = make_addr(mn_id, offset)
        else:
            addr = self._mns[mn_id].allocator.alloc(8, align=8)
        self._root_slots[shard] = addr
        return addr


class ChunkAllocator:
    """Client-side sub-allocator over RPC-fetched chunks.

    ``alloc`` is a simulated-process generator: it usually returns
    immediately from the local chunk, and only crosses the network (one
    allocation RPC) when the chunk is exhausted.
    """

    def __init__(self, qp, mn_id: int,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._qp = qp
        self._mn_id = mn_id
        self._chunk_size = chunk_size
        self._chunk_addr: Optional[int] = None
        self._chunk_used = 0
        self.rpc_count = 0

    def alloc(self, size: int) -> Generator:
        """Allocate *size* bytes (cache-line aligned); returns a global address."""
        if size > self._chunk_size:
            raise AllocationError(
                f"allocation of {size} exceeds chunk size {self._chunk_size}")
        aligned = (size + CACHE_LINE - 1) & ~(CACHE_LINE - 1)
        if (self._chunk_addr is None
                or self._chunk_used + aligned > self._chunk_size):
            reply = yield from self._qp.rpc(
                self._mn_id, ("alloc_chunk", self._chunk_size))
            self._chunk_addr = reply
            self._chunk_used = 0
            self.rpc_count += 1
        addr = self._chunk_addr + self._chunk_used
        self._chunk_used += aligned
        return addr
