"""What ``BENCHMARK.json`` declares, and the statistics every report uses.

``BENCHMARK.json`` is the only place metric names, units, directions
and bounds are written down; ``run.py`` and ``compare.py`` read it here.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics measured on the host's clock.  Every other
#: end-to-end metric is simulated: exact for a fixed seed.
HOST_END_TO_END = ("setup_s", "host_ops_per_s", "peak_rss_mb")
#: Per-layer metrics that depend on the host's clock or the profiler;
#: every other per-layer metric is a count that repeats exactly.
HOST_PER_LAYER_SUFFIXES = (".self_share", ".self_ms_per_kop", ".calls_per_op",
                           "_per_s", "trace.overhead_ratio")


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def is_host(name: str) -> bool:
    """Whether *name* is measured on the host (noisy) or simulated (exact)."""
    return name in HOST_END_TO_END or name.endswith(HOST_PER_LAYER_SUFFIXES)


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
