"""repro.obs — structured observability for the simulated DM stack.

Four pieces:

* :mod:`repro.obs.bus` — the process-wide event bus instrumentation
  points emit to; off by default (zero subscribers = near-zero cost);
* :mod:`repro.obs.spans` — one record per operation: its arguments,
  answer, phase spans under simulated time, and the verbs it issued;
* :mod:`repro.obs.registry` — named counters/gauges/histograms plus the
  collector that folds bus events into them;
* :mod:`repro.obs.export` — Chrome trace-event JSON.

The one-call entry point is :func:`recording`::

    from repro import obs

    with obs.recording() as rec:
        result = run_point("chime", "C", ...)
    obs.write_chrome_trace(rec.spans, "trace.json")
    for trace in rec.ops():     # one OpTrace per op, verbs included
        print(trace.name, [verb.kind for verb in trace.verbs])
    print(rec.notes())          # flat metrics dict

While a recording is active, :func:`active_recording` returns it; the
bench runner uses that to snapshot the metrics registry into
``RunResult.notes`` without any explicit plumbing.
"""

from __future__ import annotations

from repro.obs.bus import BUS, EventBus, ObsEvent, Subscription
from repro.obs.export import (
    chrome_trace_events,
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
    Recording,
    Span,
    SpanInstrumentedOps,
    Verb,
    active_recording,
    recording,
    traced_span,
)

__all__ = [
    "BUS", "EventBus", "ObsEvent", "Subscription",
    "Counter", "Gauge", "Histogram", "Registry", "MetricsCollector",
    "Span", "Verb", "OpTrace", "SpanInstrumentedOps", "traced_span",
    "chrome_trace_events", "render_chrome_trace", "write_chrome_trace",
    "Recording", "recording", "active_recording",
]
