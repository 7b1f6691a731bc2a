"""Plain-text reporting of experiment results (the "figures")."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.metrics import percentile


def format_table(rows: Sequence[Dict], columns: Optional[List[str]] = None,
                 title: str = "") -> str:
    """Render rows of dicts as an aligned text table."""
    if not rows:
        return f"{title}\n  (no rows)" if title else "  (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: len(str(col)) for col in columns}
    rendered = []
    for row in rows:
        cells = {}
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                text = f"{value:.3f}"
            else:
                text = str(value)
            cells[col] = text
            widths[col] = max(widths[col], len(text))
        rendered.append(cells)
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[col] for col in columns))
    for cells in rendered:
        lines.append("  ".join(cells[col].ljust(widths[col])
                               for col in columns))
    return "\n".join(lines)


def trace_rows(traces) -> Tuple[List[Dict], List[Dict]]:
    """``repro trace``'s breakdown of a recording's op records
    (:meth:`repro.obs.Recording.ops`; pending ops are left out): a row
    per op name — count, p50 / p99 us of the ops past the warm-up,
    rounded as the run row's (:meth:`RunResult.summary`), RTTs and bytes per op, its commonest verb sequence
    and that sequence's share — and a row per phase of each op name —
    count, mean us and share of the op's time."""
    by_name: Dict[str, List] = {}
    for trace in traces:
        if trace.op is not None:
            by_name.setdefault(trace.name, []).append(trace)
    op_rows, phase_rows = [], []
    for name, group in sorted(by_name.items(), key=lambda item: -len(item[1])):
        count = len(group)
        latencies = sorted(trace.op.duration_us for trace in group
                           if not trace.warmup)
        verbs, times = Counter(" ".join(verb.kind for verb in trace.verbs)
                               for trace in group).most_common(1)[0]
        op_rows.append({
            "op": name, "count": count,
            "p50_us": round(percentile(latencies, 0.50), 2),
            "p99_us": round(percentile(latencies, 0.99), 2),
            "rtts_per_op": sum(len(trace.verbs) for trace in group) / count,
            "bytes_per_op": sum(verb.size for trace in group
                                for verb in trace.verbs) / count,
            "verbs": verbs or "-", "verbs_share": times / count})
        phases: Dict[str, List[float]] = {}
        for trace in group:
            for phase in trace.phases:
                phases.setdefault(phase.name, []).append(phase.duration_us)
        op_us = sum(trace.op.duration_us for trace in group)
        phase_rows += sorted(({"op": name, "phase": phase, "count": len(spent),
                               "mean_us": sum(spent) / len(spent),
                               "share": sum(spent) / op_us if op_us else 0.0}
                              for phase, spent in phases.items()),
                             key=lambda row: -row["share"])
    return op_rows, phase_rows


def print_table(rows: Sequence[Dict], columns: Optional[List[str]] = None,
                title: str = "") -> None:
    print(format_table(rows, columns, title))


def group_rows(rows: Iterable[Dict], key: str) -> Dict[str, List[Dict]]:
    """Bucket rows by one column (for per-workload / per-index series)."""
    grouped: Dict[str, List[Dict]] = {}
    for row in rows:
        grouped.setdefault(str(row.get(key)), []).append(row)
    return grouped


def ratio(rows: Sequence[Dict], metric: str, index_a: str,
          index_b: str) -> float:
    """metric(index_a) / metric(index_b) over matching rows (avg)."""
    by_index = group_rows(rows, "index")
    a_rows = by_index.get(index_a, [])
    b_rows = by_index.get(index_b, [])
    if not a_rows or not b_rows:
        return 0.0
    a = sum(float(r[metric]) for r in a_rows) / len(a_rows)
    b = sum(float(r[metric]) for r in b_rows) / len(b_rows)
    return a / b if b else 0.0
