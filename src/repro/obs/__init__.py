"""repro.obs — structured observability for the simulated DM stack.

Four pieces:

* :mod:`repro.obs.bus` — the process-wide event bus instrumentation
  points emit to; off by default (zero subscribers = near-zero cost);
* :mod:`repro.obs.spans` — per-operation phase spans under simulated
  time, with RTT accounting per span;
* :mod:`repro.obs.registry` — named counters/gauges/histograms plus the
  collector that folds bus events into them;
* :mod:`repro.obs.export` — Chrome trace-event JSON and text flame
  summaries.

The one-call entry point is :func:`recording`::

    from repro import obs

    with obs.recording() as rec:
        result = run_point("chime", "C", ...)
    obs.write_chrome_trace(rec.spans, "trace.json")
    print(obs.flame_summary(rec.spans))
    print(rec.notes())          # flat metrics dict

While a recording is active, :func:`active_recording` returns it; the
bench runner uses that to snapshot the metrics registry into
``RunResult.notes`` without any explicit plumbing.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import Dict, List, Optional

from repro.obs.bus import BUS, EventBus, ObsEvent, Subscription
from repro.obs.export import (
    chrome_trace_events,
    flame_summary,
    render_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    Registry,
)
from repro.obs.spans import (
    OpTrace,
    Span,
    SpanInstrumentedOps,
    SpanStore,
    traced_span,
)

__all__ = [
    "BUS", "EventBus", "ObsEvent", "Subscription",
    "Counter", "Gauge", "Histogram", "Registry", "MetricsCollector",
    "Span", "OpTrace", "SpanStore", "SpanInstrumentedOps", "traced_span",
    "chrome_trace_events", "render_chrome_trace", "write_chrome_trace",
    "flame_summary",
    "Recording", "recording", "active_recording",
]

#: Stack of live recordings (innermost last); see :func:`active_recording`.
_ACTIVE: List["Recording"] = []


class Recording(AbstractContextManager):
    """One tracing session: a span store + metrics collector on one bus."""

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else BUS
        self.store = SpanStore()
        self.collector = MetricsCollector()
        self._entered = False

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "Recording":
        if self._entered:
            raise RuntimeError("Recording already active")
        self.store.attach(self.bus)
        self.collector.attach(self.bus)
        _ACTIVE.append(self)
        self._entered = True
        return self

    def __exit__(self, *exc) -> None:
        self.store.detach()
        self.collector.detach()
        if self in _ACTIVE:
            _ACTIVE.remove(self)
        self._entered = False

    # -- results -------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return self.store.spans

    @property
    def registry(self) -> Registry:
        return self.collector.registry

    def ops(self) -> List[OpTrace]:
        """Operation spans with their nested phases."""
        return self.store.ops()

    def notes(self) -> Dict[str, float]:
        """The metrics registry flattened for ``RunResult.notes``."""
        return self.registry.snapshot(prefix="obs.")


def recording(bus: Optional[EventBus] = None) -> Recording:
    """A fresh :class:`Recording`; use as a context manager."""
    return Recording(bus)


def active_recording() -> Optional[Recording]:
    """The innermost live recording, or None when nobody is tracing."""
    return _ACTIVE[-1] if _ACTIVE else None
