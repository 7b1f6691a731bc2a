"""The simulated RDMA NIC.

Each NIC direction (rx / tx) is a FIFO :class:`~repro.sim.resources.QueueServer`.
The service time of a message is::

    max(1 / iops,  (payload + WIRE_OVERHEAD) / bandwidth)

which captures the two regimes the paper's analysis depends on:

* small messages are **IOPS-bound** (the per-verb processing cost
  dominates), so halving the read size does *not* double throughput —
  §3.2.3's observation that 1-entry reads are only ~1.3× faster than
  8-entry neighborhoods;
* large messages are **bandwidth-bound**, so read amplification translates
  directly into lost throughput — the reason Sherman/ROLEX collapse when
  fetching whole leaf nodes (Fig. 3b).

Defaults approximate one 100 Gbps ConnectX-6 port.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.bus import BUS
from repro.sim.engine import Engine
from repro.sim.resources import QueueServer

#: Fixed per-message wire overhead (headers, CRC) in bytes.
WIRE_OVERHEAD = 40


@dataclass(frozen=True)
class NicSpec:
    """Performance envelope of one NIC."""

    #: Usable bandwidth in bytes/second (100 Gbps ~= 12.5 GB/s).
    bandwidth: float = 12.5e9
    #: Verb processing rate cap in messages/second.
    iops: float = 120e6
    #: One-way propagation + fabric latency in seconds.
    latency: float = 1.5e-6
    #: Parallel processing lanes per direction.
    lanes: int = 1

    def __post_init__(self) -> None:
        # Cache the per-verb IOPS floor; ``service_time`` runs for every
        # simulated message.  Same float as computing it inline.
        object.__setattr__(self, "_min_service", 1.0 / self.iops)
        # Memo table for recurring payload sizes.  Simulated traffic is
        # dominated by a handful of fixed sizes (lock words, entry
        # groups, leaf nodes), so lookups hit almost always; the bound
        # keeps a pathological size-per-message workload from growing it
        # without limit.  Not a dataclass field: identity-irrelevant,
        # excluded from eq/hash/repr.
        object.__setattr__(self, "_service_memo", {})

    def service_time(self, payload_bytes: int) -> float:
        """Service time for one message carrying *payload_bytes*."""
        memo = self._service_memo
        cached = memo.get(payload_bytes)
        if cached is not None:
            return cached
        floor = self._min_service
        transfer = (payload_bytes + WIRE_OVERHEAD) / self.bandwidth
        result = transfer if transfer > floor else floor
        if len(memo) < 1024:
            memo[payload_bytes] = result
        return result


class Nic:
    """One simulated NIC: an rx queue and a tx queue."""

    def __init__(self, engine: Engine, spec: NicSpec, name: str = "") -> None:
        self.engine = engine
        self.spec = spec
        self.name = name
        self.rx = QueueServer(engine, slots=spec.lanes, name=f"{name}.rx")
        self.tx = QueueServer(engine, slots=spec.lanes, name=f"{name}.tx")

    def receive(self, payload_bytes: int, done=None):
        """Queue an inbound message; returns its completion event (the
        caller's *done*, if given: see :meth:`QueueServer.request`)."""
        if BUS.active:
            BUS.emit("nic.queue", self.engine.now, nic=self.name,
                     direction="rx",
                     depth=self.rx.queue_length + self.rx.in_service,
                     bytes=payload_bytes)
        return self.rx.request(self.spec.service_time(payload_bytes), done)

    def send(self, payload_bytes: int, done=None):
        """Queue an outbound message; returns its completion event."""
        if BUS.active:
            BUS.emit("nic.queue", self.engine.now, nic=self.name,
                     direction="tx",
                     depth=self.tx.queue_length + self.tx.in_service,
                     bytes=payload_bytes)
        return self.tx.request(self.spec.service_time(payload_bytes), done)
