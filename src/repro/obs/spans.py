"""The recorder: one record per operation, with its phases and verbs.

A *span* is one named interval of an index operation — the whole
operation (``level="op"``) or one phase inside it (``level="phase"``):
cache-backed traversal, leaf read, lock acquisition, write-back,
speculative read, retry backoff, node split.  A span emits an ``open``
bus event (an op's carries its arguments) and a ``span`` event when it
closes (an op's carries its result).  A :class:`Recording` builds one
:class:`OpTrace` per op from them, with the verbs the op issued: a verb
belongs to the op whose generator was being resumed when it was issued
(:func:`traced_span` keeps ``bus.op``; every ``verb`` event carries it),
not to the queue pair it went through, which pipelined lanes share.  A
span's ``rtts`` counts its op's verbs issued between its open and close:
the paper's Table 1 RTT accounting, machine readable.

Index clients gain instrumentation through :class:`SpanInstrumentedOps`:
``yield from self._op("search", gen)`` wraps a whole operation,
``yield from self._phase("leaf_read", gen)`` wraps a phase within the
current operation.  With no bus subscriber both helpers return the
wrapped generator untouched — the disabled-path cost is one attribute
check per call.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.obs.bus import BUS, EventBus, ObsEvent
from repro.obs.registry import MetricsCollector

__all__ = ["Span", "Verb", "OpTrace", "Recording", "recording", "active_recording",
           "SpanInstrumentedOps", "traced_span"]

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
    #: An op span's answer (its arguments ride on its ``open`` event).
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.begin

    @property
    def duration_us(self) -> float:
        return self.duration * 1e6


class Verb(NamedTuple):
    """One verb an op issued: a doorbell batch of ``batch`` verbs is one."""

    kind: str
    addr: int
    size: int
    batch: int
    time: float


@dataclass
class OpTrace:
    """One op as recorded: its arguments, its closed span (None while it
    is pending: its CN crashed, or the recording ended first), its phase
    spans and the verbs it issued, in issue order."""

    client: str
    seq: int
    name: str
    args: Tuple
    begin: float
    op: Optional[Span] = None
    phases: List[Span] = field(default_factory=list)
    verbs: List[Verb] = field(default_factory=list)
    #: Opened for a stream op inside the run's warm-up window.
    warmup: bool = False
    #: ``len(verbs)`` at the open of each span of this op still open.
    _marks: List[int] = field(default_factory=list, repr=False)

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


#: Stack of live recordings (innermost last); see :func:`active_recording`.
_ACTIVE: List["Recording"] = []


class Recording(AbstractContextManager):
    """One tracing session on :data:`BUS`: an :class:`OpTrace` per op
    opened while it is active (:meth:`ops`), every closed span
    (:attr:`spans`), and a :class:`~repro.obs.registry.MetricsCollector`
    (:meth:`notes`)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.collector = MetricsCollector()
        self._traces: List[OpTrace] = []
        self._open: Dict[Tuple[str, int], OpTrace] = {}
        #: Per client name: whether its current stream op is a warm-up one.
        self._warmup: Dict[str, bool] = {}
        self._sub = None

    def __enter__(self) -> "Recording":
        if self._sub is not None:
            raise RuntimeError("Recording already active")
        self._sub = BUS.subscribe(self._on_event, kinds=("open", "span", "verb", "stream.op"))
        self.collector.attach(BUS)
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self._sub.unsubscribe()
        self._sub = None
        self.collector.detach()
        _ACTIVE.remove(self)

    def ops(self) -> List[OpTrace]:
        """One record per op opened, in open order (pending ones too)."""
        return self._traces

    def notes(self) -> Dict[str, float]:
        """The metrics registry flattened for ``RunResult.notes``."""
        return self.collector.registry.snapshot(prefix="obs.")

    def _on_event(self, event: ObsEvent) -> None:
        """File a verb under its op; open or close a span.  Spans of an op
        opened before the recording began are dropped."""
        data = event.data
        if event.kind == "verb":
            trace = self._open.get(data["op"])
            if trace is not None:
                trace.verbs.append(Verb(data["kind"], data["addr"], data["size"],
                                        data["batch"], event.time))
            return
        if event.kind == "stream.op":
            self._warmup[data["client"]] = data["warmup"]
            return
        key = (data["client"], data["seq"])
        level = data["level"]
        if event.kind == "open" and level == "op":
            self._open[key] = OpTrace(*key, data["name"], data["args"], event.time,
                                      warmup=self._warmup.get(key[0], False))
            self._traces.append(self._open[key])
        trace = self._open.get(key)
        if trace is None:
            return
        if event.kind == "open":
            trace._marks.append(len(trace.verbs))
            return
        span = Span(client=key[0], name=data["name"], seq=key[1], level=level,
                    begin=data["begin"], end=data["end"],
                    rtts=len(trace.verbs) - trace._marks.pop(),
                    error=data.get("error", False), result=data.get("result"))
        self.spans.append(span)
        if level == "op":
            trace.op = span
            del self._open[key]
        else:
            trace.phases.append(span)


def recording() -> Recording:
    """A fresh :class:`Recording`; use as a context manager."""
    return Recording()


def active_recording() -> Optional[Recording]:
    """The innermost live recording, or None when nobody is tracing."""
    return _ACTIVE[-1] if _ACTIVE else None


def traced_span(bus: EventBus, client: str, seq: int, name: str, level: str,
                engine, gen: Generator, args: Tuple = ()) -> Generator:
    """Drive *gen* to completion as ``yield from`` would, with ``bus.op``
    set to ``(client, seq)`` while it runs; emit its span as it opens and
    as it closes.

    A span is emitted even when the wrapped generator raises (flagged
    ``error=True``) so retry storms stay visible in the timeline.
    GeneratorExit is the one exception that emits nothing: it means the
    generator was abandoned (e.g. a fault-injected CN crash parked it
    forever and it is being reclaimed), not that the operation errored —
    and reclamation can happen while a *later* recording is active.
    """
    key = (client, seq)
    begin = engine.now
    bus.emit("open", begin, client=client, seq=seq, name=name, level=level,
             args=args)
    sent = thrown = None
    while True:
        outer, bus.op = bus.op, key
        try:
            target = [gen.send(sent) if thrown is None else gen.throw(thrown)]
        except StopIteration as stop:
            result = stop.value
            break
        except GeneratorExit:
            raise
        except BaseException:
            bus.emit("span", engine.now, client=client, name=name, seq=seq,
                     level=level, begin=begin, end=engine.now, error=True)
            raise
        finally:
            bus.op = outer
        # Hold nothing while suspended, as ``yield from`` does.
        sent = thrown = None
        try:
            sent = yield target.pop()
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - thrown on into gen
            thrown = exc
    bus.emit("span", engine.now, client=client, name=name, seq=seq,
             level=level, begin=begin, end=engine.now,
             result=result if level == "op" else None)
    return result


class SpanInstrumentedOps:
    """Mixin giving index clients ``_op`` / ``_phase`` span wrappers.

    Requires ``self.engine`` and ``self.ctx.name`` (both
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
                           self.engine, gen, args)

    def _phase(self, name: str, gen: Generator) -> Generator:
        """Wrap one phase of the current operation."""
        if not BUS.active:
            return gen
        return traced_span(BUS, self.ctx.name, self._obs_seq, name, "phase",
                           self.engine, gen)

    def _sleep_phase(self, name: str, delay: float) -> Generator:
        """A timeout wrapped as a phase (retry backoff visibility)."""
        def sleeper():
            yield self.engine.timeout(delay)
        return self._phase(name, sleeper())
