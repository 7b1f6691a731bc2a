"""One-sided RDMA verbs over the simulated fabric.

:class:`RdmaQp` is a queue pair connecting one client to the memory pool.
Each verb method is a generator that yields **one** event, a
:class:`~repro.sim.engine.Timeline`: it charges NIC queue time and
propagation latency position by position, performs the memory effect on
the target :class:`~repro.memory.node.MemoryNode`, and resumes the
issuing coroutine once, with the result.

Timing model per verb (the MN-side NIC is the one modelled NIC: it is
the bottleneck of the paper's 10-CN / 1-MN setup):

* READ   — request latency → MN rx processing (IOPS charge) → *memory
  sampled here* → MN tx transfer (bandwidth charge for the data) →
  response latency.
* WRITE  — request transfer into MN rx (bandwidth charge for the data;
  payload lands in 64-byte cache-line chunks across the service window,
  so concurrent READs observe genuinely torn states) → ack latency.
* CAS / masked-CAS / FAA — like READ but the memory effect is atomic and
  NICs process atomics at a reduced rate (`NicSpec.iops / atomic_penalty`).
* Doorbell batches — several READs or WRITEs issued back-to-back count as
  **one round trip**: latency is paid once, per-verb NIC charges still
  apply (this is why batching helps RTT-bound operations but not
  IOPS-bound ones).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional, Sequence, Tuple

from repro.errors import MemoryAccessError
from repro.memory.region import CACHE_LINE, addr_mn

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.memory.node
    from repro.memory.node import MemoryNode
from repro.obs.bus import BUS
from repro.rdma.nic import WIRE_OVERHEAD
from repro.rdma.ops import (
    ATOMIC_PAYLOAD,
    RPC_REQUEST_BYTES,
    RPC_RESPONSE_BYTES,
    TrafficStats,
)
from repro.sim.engine import Engine, Timeline

#: NICs execute atomic verbs this much slower than plain verbs.
ATOMIC_PENALTY = 2.0

#: Timeline states, named for the position being fired: the end of a
#: latency hop (``_OUT`` at the MN, ``_BACK`` at the CN), the issue
#: (``_SEND``) or a completed MN queue slice (rx ``_RECEIVED``, CPU
#: ``_SERVED``, tx ``_SENT``).  From ``_SEND`` up a kind's ``_step`` acts.
_BACK, _SEND, _OUT, _RECEIVED, _SERVED, _SENT = range(6)


class _Verb(Timeline):
    """What every verb kind shares (DESIGN.md §13).

    The kind's ``_step(state)``: ``_SEND`` resolves the target and
    leaves through :meth:`_go`, ``_OUT`` is the arrival at the MN, the
    step that requests the tx slice(s) sets ``_result`` → response
    propagation → the waiter resumes with the result.  :meth:`fire`
    acts where the coroutine body this replaces was resumed: what a
    step raises is thrown into the waiter there.
    """

    __slots__ = ("qp", "_state", "_pending", "_latency", "_result")

    def __init__(self, qp: "RdmaQp") -> None:
        # Flattened Timeline.__init__: the simulator's hottest constructor.
        self.engine = qp.engine
        self.callbacks = []
        self._value = self._exception = None
        self._triggered = False
        self.qp = qp
        self._pending = 0
        self._result = None
        self._step(_SEND)

    def _go(self, latency: float) -> None:
        self._state = _OUT
        self._latency = latency
        self._after(latency)

    def _return(self) -> None:
        self._state = _BACK
        self._after(self._latency)

    def fire(self) -> None:
        if self._pending:
            # A batch's all_of: each of the ``_pending`` completions just
            # requested takes its own position, then the all_of one more.
            self._pending -= 1
            if not self._pending:
                self.engine._push_now(self)
            return
        state = self._state
        if state == _SENT:
            self._return()
        elif state >= _SEND:
            try:
                self._step(state)
            except Exception as exc:  # noqa: BLE001 - the waiter's to handle
                self._finish(exception=exc)
        else:
            self._finish(self._result)


class _Read(_Verb):
    """READ(s): rx slice per request → all sampled → tx slice per payload."""

    __slots__ = ("_requests", "_targets")

    def __init__(self, qp: "RdmaQp",
                 requests: Sequence[Tuple[int, int]]) -> None:
        self._requests = requests
        _Verb.__init__(self, qp)

    def _step(self, state: int) -> None:
        if state == _SEND:
            # Each request's MN is resolved once; the same node serves
            # the rx charge, the memory sample, and the tx transfer.
            mn = self.qp._mn
            self._targets = [mn(addr) for addr, _length in self._requests]
            self._go(self._targets[0].nic.spec.latency)
        elif state == _OUT:
            # Request processing: each verb charges its MN's rx pipeline.
            for mn in self._targets:
                mn.nic.receive(0, self)
            self._pending = len(self._targets)
            self._state = _RECEIVED
        else:
            # Memory is sampled when every request has been processed.
            stats = self.qp.stats
            self._result = payloads = []
            for mn, (addr, length) in zip(self._targets, self._requests):
                payloads.append(mn.mem_read(addr, length))
                stats.verbs += 1
                stats.reads += 1
                stats.bytes_read += length
            # Response transfer: data consumes MN egress bandwidth.
            for mn, (_addr, length) in zip(self._targets, self._requests):
                mn.nic.send(length, self)
            self._pending = len(payloads)
            self._state = _SENT


class _Write(_Verb):
    """WRITE(s): rx slices chained chunk by chunk, each landing on completion.

    With torn writes enabled, each payload is split at **global
    cache-line boundaries** and every chunk occupies the MN rx queue as
    its own service slice, landing in memory when its slice completes.
    Queued READs therefore interleave *between* chunk landings and
    genuinely observe half-written regions — exactly the hazard CHIME's
    three-level optimistic synchronization must detect.  (A real NIC's
    DMA engine similarly lands cache-line-aligned units concurrently
    with other processing.)  Global alignment matters: it guarantees
    every possible tear boundary coincides with a striped line-version
    byte, making the NV check complete.  Aggregate bandwidth/IOPS costs
    match the unchunked model.
    """

    __slots__ = ("_requests", "_slices", "_landing")

    def __init__(self, qp: "RdmaQp",
                 requests: Sequence[Tuple[int, bytes]]) -> None:
        self._requests = requests
        _Verb.__init__(self, qp)

    def _plan(self):
        """Every ``(mn, address, chunk, service time)`` slice in landing
        order; a request is resolved where its first slice is asked for."""
        qp = self.qp
        stats = qp.stats
        for addr, data in self._requests:
            mn = qp._mn(addr)
            spec = mn.nic.spec
            chunks = qp._split_chunks(addr, data)
            # Per-chunk service times summing to exactly the unchunked
            # cost max(1/iops, (bytes + overhead) / bandwidth).
            services = [len(chunk) / spec.bandwidth for _a, chunk in chunks]
            services[0] += WIRE_OVERHEAD / spec.bandwidth
            shortfall = 1.0 / spec.iops - sum(services)
            if shortfall > 0:
                services[0] += shortfall
            for (chunk_addr, chunk), service in zip(chunks, services):
                yield mn, chunk_addr, chunk, service
            stats.verbs += 1
            stats.writes += 1
            stats.bytes_written += len(data)

    def _step(self, state: int) -> None:
        if state == _SEND:
            self._slices = self._plan()
            self._go(self.qp._mn(self._requests[0][0]).nic.spec.latency)
            return
        # Chunks are *chained*: each lands when its service slice
        # completes, and other queued verbs (reads!) may be served in
        # between — that is where genuinely torn reads come from.
        if state == _RECEIVED:
            mn, chunk_addr, chunk, _service = self._landing
            mn.mem_write(chunk_addr, chunk)
        self._landing = landing = next(self._slices, None)
        if landing is None:
            self._return()  # no tx slice: the ack leaves at once
        else:
            self._state = _RECEIVED
            mn, _addr, _chunk, service = landing
            mn.nic.rx.request(service, self)


class _Atomic(_Verb):
    """CAS / masked-CAS / FAA: penalised rx slice → effect → tx slice."""

    __slots__ = ("_mn", "_effect")

    def __init__(self, qp: "RdmaQp", addr: int, effect) -> None:
        stats = qp.stats
        stats.rtts += 1
        stats.verbs += 1
        stats.atomics += 1
        self._mn = qp._mn(addr)
        self._effect = effect
        _Verb.__init__(self, qp)

    def _step(self, state: int) -> None:
        nic = self._mn.nic
        if state == _SEND:
            self._go(nic.spec.latency)
        elif state == _OUT:
            self._state = _RECEIVED
            nic.rx.request(
                nic.spec.service_time(ATOMIC_PAYLOAD) * ATOMIC_PENALTY, self)
        else:
            self._result = self._effect(self._mn)  # applied at one instant
            self._state = _SENT
            nic.send(ATOMIC_PAYLOAD, self)


class _Rpc(_Verb):
    """RPC: rx slice → MN-CPU slice → handler → tx slice."""

    __slots__ = ("_mn", "_request", "_service")

    def __init__(self, qp: "RdmaQp", mn: "MemoryNode", request,
                 service_time: float) -> None:
        self._mn = mn
        self._request = request
        self._service = service_time
        _Verb.__init__(self, qp)

    def _step(self, state: int) -> None:
        mn = self._mn
        if state == _SEND:
            self._go(mn.nic.spec.latency)
        elif state == _OUT:
            self._state = _RECEIVED
            mn.nic.receive(RPC_REQUEST_BYTES, self)
        elif state == _RECEIVED:
            self._state = _SERVED
            mn.cpu.request(self._service, self)
        else:
            self._result = mn.handle_rpc(self._request)
            self._state = _SENT
            mn.nic.send(RPC_RESPONSE_BYTES, self)


class RdmaQp:
    """A client's queue pair into the memory pool."""

    def __init__(self, engine: Engine, mns: Dict[int, "MemoryNode"],
                 torn_writes: bool = True) -> None:
        self.engine = engine
        self._mns = mns
        self._torn_writes = torn_writes
        self.stats = TrafficStats()
        #: Identity of the owning client (set by ClientContext); the
        #: fault injector matches crash/loss specs against these.
        self.owner = ""
        self.cn_id = -1
        #: Optional :class:`repro.faults.FaultInjector`; every verb
        #: consults it before (and after) taking effect.
        self.injector = None

    def _mn(self, addr: int) -> "MemoryNode":
        mn_id = addr_mn(addr)
        try:
            return self._mns[mn_id]
        except KeyError:
            raise MemoryAccessError(f"no memory node {mn_id} "
                                    f"(address {addr:#x})") from None

    def _emit_verb(self, kind: str, addr: int, size: int,
                   batch: int = 1) -> None:
        """Publish one verb issue on the observability bus, naming the op
        that issued it."""
        BUS.emit("verb", self.engine.now, op=BUS.op, kind=kind, addr=addr,
                 size=size, batch=batch)

    # ------------------------------------------------------------------ READ

    def read(self, addr: int, length: int) -> Generator:
        """One-sided READ of *length* bytes; returns the payload."""
        if self.injector is not None:
            yield from self.injector.before_verb(self, "read", addr)
        self.stats.rtts += 1
        if BUS.active:
            self._emit_verb("read", addr, length)
        data, = yield _Read(self, [(addr, length)])
        if self.injector is not None:
            yield from self.injector.after_verb(self, "read", addr)
        return data

    def read_batch(self, requests: Sequence[Tuple[int, int]]) -> Generator:
        """Doorbell-batched READs: one round trip, per-verb NIC charges."""
        if self.injector is not None:
            yield from self.injector.before_verb(self, "read_batch",
                                                 requests[0][0])
        self.stats.rtts += 1
        if BUS.active:
            self._emit_verb("read_batch", requests[0][0],
                            sum(size for _a, size in requests),
                            batch=len(requests))
        results = yield _Read(self, requests)
        if self.injector is not None:
            yield from self.injector.after_verb(self, "read_batch",
                                                requests[0][0])
        return results

    # ----------------------------------------------------------------- WRITE

    def write(self, addr: int, data: bytes) -> Generator:
        """One-sided WRITE; returns once the remote ack arrives."""
        if self.injector is not None:
            yield from self.injector.before_verb(self, "write", addr)
        self.stats.rtts += 1
        if BUS.active:
            self._emit_verb("write", addr, len(data))
        yield _Write(self, [(addr, data)])
        if self.injector is not None:
            yield from self.injector.after_verb(self, "write", addr)

    def write_batch(self, requests: Sequence[Tuple[int, bytes]]) -> Generator:
        """Doorbell-batched WRITEs: one round trip, per-verb NIC charges.

        The verbs land in order (the QP is ordered), which CHIME relies on
        when combining a data write with the unlocking write.
        """
        if self.injector is not None:
            yield from self.injector.before_verb(self, "write_batch",
                                                 requests[0][0])
        self.stats.rtts += 1
        if BUS.active:
            self._emit_verb("write_batch", requests[0][0],
                            sum(len(data) for _a, data in requests),
                            batch=len(requests))
        yield _Write(self, requests)
        if self.injector is not None:
            yield from self.injector.after_verb(self, "write_batch",
                                                requests[0][0])

    def _split_chunks(self, addr: int, data: bytes):
        """Split a payload at global cache-line boundaries (or not at all
        when torn-write modelling is disabled)."""
        if not self._torn_writes or len(data) <= CACHE_LINE:
            return [(addr, data)]
        chunks = []
        offset = 0
        first = CACHE_LINE - (addr % CACHE_LINE)
        if first:
            chunks.append((addr, data[:first]))
            offset = first
        while offset < len(data):
            chunks.append((addr + offset, data[offset:offset + CACHE_LINE]))
            offset += CACHE_LINE
        return chunks

    # --------------------------------------------------------------- ATOMICS

    def cas(self, addr: int, expected: int, new: int) -> Generator:
        """Atomic compare-and-swap; returns ``(old_value, swapped)``."""
        if self.injector is not None:
            yield from self.injector.before_verb(self, "cas", addr)
        if BUS.active:
            self._emit_verb("cas", addr, ATOMIC_PAYLOAD)
        result = yield _Atomic(
            self, addr, lambda mn: mn.mem_cas(addr, expected, new))
        if self.injector is not None:
            yield from self.injector.after_verb(self, "cas", addr)
        return result

    def masked_cas(self, addr: int, compare: int, swap: int,
                   compare_mask: int, swap_mask: int) -> Generator:
        """RDMA extended masked CAS; returns ``(old_value, swapped)``.

        The returned old value carries the full 8-byte word regardless of
        the masks — the property CHIME's vacancy-bitmap piggybacking uses
        to read metadata for free during lock acquisition.
        """
        if self.injector is not None:
            yield from self.injector.before_verb(self, "masked_cas", addr)
        if BUS.active:
            self._emit_verb("masked_cas", addr, ATOMIC_PAYLOAD)
        result = yield _Atomic(
            self, addr, lambda mn: mn.mem_masked_cas(addr, compare, swap,
                                                     compare_mask, swap_mask))
        if self.injector is not None:
            yield from self.injector.after_verb(self, "masked_cas", addr)
        return result

    def faa(self, addr: int, delta: int) -> Generator:
        """Atomic fetch-and-add; returns the old value."""
        if self.injector is not None:
            yield from self.injector.before_verb(self, "faa", addr)
        if BUS.active:
            self._emit_verb("faa", addr, ATOMIC_PAYLOAD)
        result = yield _Atomic(
            self, addr, lambda mn: (mn.mem_faa(addr, delta), True))
        if self.injector is not None:
            yield from self.injector.after_verb(self, "faa", addr)
        return result[0]

    # ------------------------------------------------------------------- RPC

    def rpc(self, mn_id: int, request, service_time: Optional[float] = None,
            ) -> Generator:
        """Two-sided RPC to a memory node's weak CPU.

        *service_time* overrides the MN's fixed per-request cost —
        FlexKV's offloaded operations pass theirs here so an MN-side
        index walk charges the weak core proportionally to the
        structure accesses it performs.
        """
        if self.injector is not None:
            yield from self.injector.before_verb(self, "rpc", 0, mn_id=mn_id)
        self.stats.rtts += 1
        self.stats.rpcs += 1
        if BUS.active:
            self._emit_verb("rpc", mn_id, 0)
        try:
            mn = self._mns[mn_id]
        except KeyError:
            raise MemoryAccessError(f"no memory node {mn_id}") from None
        reply = yield _Rpc(
            self, mn, request,
            mn.rpc_service_time if service_time is None else service_time)
        if self.injector is not None:
            yield from self.injector.after_verb(self, "rpc", 0, mn_id=mn_id)
        return reply
