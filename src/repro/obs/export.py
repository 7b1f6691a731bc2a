"""Timeline exporter: Chrome trace-event JSON.

The JSON output follows the Chrome trace-event format (the
``traceEvents`` array of "X" complete events) and loads directly in
``chrome://tracing`` or https://ui.perfetto.dev.  Each simulated client
becomes one track (``tid``); operation spans and their nested phase
spans render as stacked slices; span arguments carry the RTT count so
Table 1's accounting can be read straight off the timeline.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.spans import Span

__all__ = ["chrome_trace_events", "render_chrome_trace",
           "write_chrome_trace"]

#: Sort keys so op slices open before the phase slices they contain
#: (Chrome requires begin-sorted events per track for correct nesting).
_LEVEL_ORDER = {"op": 0, "phase": 1}


def chrome_trace_events(spans: Iterable[Span]) -> List[Dict]:
    """Convert spans to Chrome trace "X" (complete) events.

    Timestamps are microseconds of simulated time; ``pid`` is always 0
    (one simulated process), ``tid`` is the client name.
    """
    ordered = sorted(spans, key=lambda s: (s.client, s.begin,
                                           _LEVEL_ORDER.get(s.level, 2),
                                           -s.end))
    events: List[Dict] = []
    for span in ordered:
        events.append({
            "name": span.name,
            "cat": span.level,
            "ph": "X",
            "ts": round(span.begin * 1e6, 3),
            "dur": round(span.duration_us, 3),
            "pid": 0,
            "tid": span.client,
            "args": {"seq": span.seq, "rtts": span.rtts,
                     **({"error": True} if span.error else {})},
        })
    return events


def render_chrome_trace(spans: Iterable[Span],
                        metadata: Dict = None) -> Dict:
    """The full trace document (``traceEvents`` + display hints)."""
    document = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    if metadata:
        document["otherData"] = dict(metadata)
    return document


def write_chrome_trace(spans: Iterable[Span], path: str,
                       metadata: Dict = None) -> None:
    """Serialize the trace document to *path* as JSON."""
    with open(path, "w") as sink:
        json.dump(render_chrome_trace(spans, metadata), sink)
