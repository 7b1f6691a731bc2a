"""Per-operation phase spans under simulated time.

A *span* is one named interval of an index operation — the whole
operation (``level="op"``) or one phase inside it (``level="phase"``):
cache-backed traversal, leaf read, lock acquisition, write-back,
speculative read, retry backoff, node split.  Spans are emitted on the
event bus as ``kind="span"`` events when the interval closes, carrying
its begin/end simulated times, the owning client, a process-wide operation
sequence number (so phases group under their operation), and the number
of RDMA round trips the interval issued — the machine-readable form of
the paper's Table 1 RTT accounting.

Index clients gain instrumentation through :class:`SpanInstrumentedOps`:
``yield from self._op("search", gen)`` wraps a whole operation,
``yield from self._phase("leaf_read", gen)`` wraps a phase within the
current operation.  With no bus subscriber both helpers return the
wrapped generator untouched — the disabled-path cost is one attribute
check per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, Generator, List, Tuple

from repro.obs.bus import BUS, EventBus, ObsEvent

__all__ = ["Span", "OpTrace", "SpanStore", "SpanInstrumentedOps",
           "traced_span"]

_OP_SEQ = count(1)


@dataclass(frozen=True)
class Span:
    """One closed interval, as carried by a ``span`` bus event."""

    client: str
    name: str
    seq: int
    level: str  # "op" | "phase"
    begin: float
    end: float
    rtts: int = 0
    error: bool = False
    #: An op span's answer (its arguments ride on its ``invoke`` event).
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.begin

    @property
    def duration_us(self) -> float:
        return self.duration * 1e6


@dataclass
class OpTrace:
    """One operation span with its phase spans, rebuilt by the store."""

    op: Span
    phases: List[Span] = field(default_factory=list)

    @property
    def phase_seconds(self) -> float:
        """Total non-overlapping phase time (phases may nest: a
        speculative read runs inside the leaf-read phase), computed by
        interval union so nested phases are not double counted."""
        intervals = sorted((p.begin, p.end) for p in self.phases)
        total = 0.0
        cursor = None
        for begin, end in intervals:
            if cursor is None or begin > cursor:
                total += end - begin
                cursor = end
            elif end > cursor:
                total += end - cursor
                cursor = end
        return total

    @property
    def coverage(self) -> float:
        """Fraction of the op interval covered by phase spans."""
        if self.op.duration <= 0:
            return 1.0 if not self.phases else 0.0
        return self.phase_seconds / self.op.duration


class SpanStore:
    """Bus subscriber that records spans and rebuilds per-op trees."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(client, seq, name, args, begin)`` of every op invoked.
        self.invoked: List[Tuple] = []
        self._sub = None

    def attach(self, bus: EventBus) -> None:
        if self._sub is None:
            self._sub = bus.subscribe(self.on_event, kinds=("span", "invoke"))

    def detach(self) -> None:
        if self._sub is not None:
            self._sub.unsubscribe()
            self._sub = None

    def on_event(self, event: ObsEvent) -> None:
        data = event.data
        if event.kind == "invoke":
            self.invoked.append((data["client"], data["seq"], data["name"],
                                 data["args"], event.time))
            return
        self.spans.append(Span(
            client=data["client"], name=data["name"], seq=data["seq"],
            level=data["level"], begin=data["begin"], end=data["end"],
            rtts=data.get("rtts", 0), error=data.get("error", False),
            result=data.get("result")))

    def ops(self) -> List[OpTrace]:
        """Group phase spans under their operation spans.

        Keyed by ``(client, seq)``; phases arriving for an unknown op
        (e.g. recording started mid-operation) are dropped.
        """
        by_key: Dict[Tuple[str, int], OpTrace] = {}
        for span in self.spans:
            if span.level == "op":
                by_key[(span.client, span.seq)] = OpTrace(span)
        for span in self.spans:
            if span.level == "phase":
                trace = by_key.get((span.client, span.seq))
                if trace is not None:
                    trace.phases.append(span)
        return list(by_key.values())


def traced_span(bus: EventBus, client: str, seq: int, name: str, level: str,
                engine, gen: Generator, qp=None, args: Tuple = ()) -> Generator:
    """Drive *gen* to completion, then emit its closed span.

    An op span emits an ``invoke`` event with its *args* as it opens and
    carries its result, so a recording holds the run's history.

    A span is emitted even when the wrapped generator raises (flagged
    ``error=True``) so retry storms stay visible in the timeline.
    GeneratorExit is the one exception that emits nothing: it means the
    generator was abandoned (e.g. a fault-injected CN crash parked it
    forever and it is being reclaimed), not that the operation errored —
    and reclamation can happen while a *later* recording is active.
    """
    begin = engine.now
    if level == "op":
        bus.emit("invoke", begin, client=client, seq=seq, name=name, args=args)
    rtts_before = qp.stats.rtts if qp is not None else 0
    try:
        result = yield from gen
    except GeneratorExit:
        raise
    except BaseException:
        bus.emit("span", engine.now, client=client, name=name, seq=seq,
                 level=level, begin=begin, end=engine.now,
                 rtts=(qp.stats.rtts - rtts_before) if qp is not None else 0,
                 error=True)
        raise
    bus.emit("span", engine.now, client=client, name=name, seq=seq,
             level=level, begin=begin, end=engine.now,
             rtts=(qp.stats.rtts - rtts_before) if qp is not None else 0,
             result=result if level == "op" else None)
    return result


class SpanInstrumentedOps:
    """Mixin giving index clients ``_op`` / ``_phase`` span wrappers.

    Requires ``self.engine``, ``self.qp``, and ``self.ctx.name`` (all
    provided by :class:`~repro.core.family.FamilyClientBase`, the one
    class that mixes this in — every index family's client derives
    from it).
    """

    #: The current op's number, unique process-wide (sharded sub-clients share a name).
    _obs_seq = 0

    def _op(self, name: str, gen: Generator, *args) -> Generator:
        """Wrap a whole operation on *args*; no-op passthrough when bus is quiet."""
        if not BUS.active:
            return gen
        self._obs_seq = next(_OP_SEQ)
        return traced_span(BUS, self.ctx.name, self._obs_seq, name, "op",
                           self.engine, gen, qp=self.qp, args=args)

    def _phase(self, name: str, gen: Generator) -> Generator:
        """Wrap one phase of the current operation."""
        if not BUS.active:
            return gen
        return traced_span(BUS, self.ctx.name, self._obs_seq, name, "phase",
                           self.engine, gen, qp=self.qp)

    def _sleep_phase(self, name: str, delay: float) -> Generator:
        """A timeout wrapped as a phase (retry backoff visibility)."""
        def sleeper():
            yield self.engine.timeout(delay)
        return self._phase(name, sleeper())
