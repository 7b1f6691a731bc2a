"""Timeline exporters: Chrome trace-event JSON and a text flame summary.

The JSON output follows the Chrome trace-event format (the
``traceEvents`` array of "X" complete events) and loads directly in
``chrome://tracing`` or https://ui.perfetto.dev.  Each simulated client
becomes one track (``tid``); operation spans and their nested phase
spans render as stacked slices; span arguments carry the RTT count so
Table 1's accounting can be read straight off the timeline.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence

from repro.obs.spans import Span

__all__ = ["chrome_trace_events", "render_chrome_trace",
           "write_chrome_trace", "flame_summary"]

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


def flame_summary(spans: Sequence[Span]) -> str:
    """A text breakdown: per span name, count / total / mean / rtts.

    Op-level rows come first, then phases, both ordered by total time —
    the "where does the latency go" table the paper's breakdown figures
    argue from.
    """
    buckets: Dict[tuple, List[Span]] = {}
    for span in spans:
        buckets.setdefault((span.level, span.name), []).append(span)
    rows = []
    for (level, name), group in buckets.items():
        total_us = sum(s.duration_us for s in group)
        rtts = sum(s.rtts for s in group)
        rows.append({
            "level": level,
            "name": name,
            "count": len(group),
            "total_us": total_us,
            "mean_us": total_us / len(group),
            "rtts": rtts,
            "rtts_per_span": rtts / len(group),
        })
    rows.sort(key=lambda r: (_LEVEL_ORDER.get(r["level"], 2),
                             -r["total_us"]))
    header = (f"{'level':<6} {'name':<16} {'count':>7} {'total_us':>12} "
              f"{'mean_us':>10} {'rtts':>7} {'rtts/span':>10}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['level']:<6} {row['name']:<16} {row['count']:>7} "
            f"{row['total_us']:>12.1f} {row['mean_us']:>10.2f} "
            f"{row['rtts']:>7} {row['rtts_per_span']:>10.2f}")
    if not rows:
        lines.append("(no spans recorded)")
    return "\n".join(lines)
