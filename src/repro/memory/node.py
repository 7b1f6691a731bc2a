"""The memory node: DRAM region + NIC + a weak-CPU RPC handler.

Memory nodes in the DM architecture have plenty of DRAM but almost no
compute: the only CPU work they perform is connection setup and memory
allocation.  We model that single responsibility as an RPC queue served at
a fixed per-request cost; everything else (READ / WRITE / atomics) is
handled entirely by the simulated NIC, never touching the MN CPU — the
defining property of one-sided access.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.memory.allocator import BumpAllocator
from repro.memory.region import MemoryRegion, addr_offset
from repro.rdma.nic import Nic, NicSpec
from repro.sim.engine import Engine
from repro.sim.resources import QueueServer

#: Service time of one allocation RPC on the weak MN CPU, in seconds.
RPC_SERVICE_TIME = 5e-6


class MemoryNode:
    """One node of the memory pool."""

    def __init__(self, engine: Engine, mn_id: int, region_size: int,
                 nic_spec: Optional[NicSpec] = None) -> None:
        self.engine = engine
        self.mn_id = mn_id
        self.region = MemoryRegion(region_size)
        self.allocator = BumpAllocator(mn_id, region_size)
        self.nic = Nic(engine, nic_spec or NicSpec(), name=f"mn{mn_id}")
        # A memory node has ~1 weak core: RPCs serialize on it.
        self.cpu = QueueServer(engine, slots=1, name=f"mn{mn_id}.cpu")
        self.rpc_service_time = RPC_SERVICE_TIME
        #: Extra RPC kinds installed by MN-offloading index families:
        #: kind -> handler(request) (see :meth:`register_rpc`).
        self.rpc_handlers = {}

    def register_rpc(self, kind: str, handler) -> None:
        """Install *handler* for RPCs whose ``request[0] == kind``.

        MN-offloading families (FlexKV placement, Outback overflow
        inserts) register their handlers here at index-build time; the
        handler runs host-side against this node's region while the verb
        layer charges the MN CPU for the caller's service time.
        """
        self.rpc_handlers[kind] = handler

    def handle_rpc(self, request):
        """Serve one RPC synchronously (the caller charges CPU time).

        Built-in requests:

        * ``("alloc_chunk", size)`` → global address of a fresh chunk

        plus anything installed via :meth:`register_rpc`.
        """
        kind = request[0]
        if kind == "alloc_chunk":
            return self.allocator.alloc(request[1])
        handler = self.rpc_handlers.get(kind)
        if handler is not None:
            return handler(request)
        raise SimulationError(f"unknown RPC {kind!r} at MN {self.mn_id}")

    # -- convenience accessors used by the verb layer ------------------------

    def mem_read(self, addr: int, length: int) -> bytes:
        return self.region.read(addr_offset(addr), length)

    def mem_write(self, addr: int, data: bytes) -> None:
        self.region.write(addr_offset(addr), data)

    def mem_cas(self, addr: int, expected: int, new: int):
        return self.region.cas(addr_offset(addr), expected, new)

    def mem_masked_cas(self, addr: int, compare: int, swap: int,
                       compare_mask: int, swap_mask: int):
        return self.region.masked_cas(addr_offset(addr), compare, swap,
                                      compare_mask, swap_mask)

    def mem_faa(self, addr: int, delta: int) -> int:
        return self.region.faa(addr_offset(addr), delta)
