"""Compare two perfbench suite reports: ``compare.py A.json B.json``.

A is the parent, B the change.  One row per workload and metric with
each side's median, quartiles and n, the ratio B/A with its base, and a
verdict:

* ``same`` / ``better`` / ``worse`` — the medians differ by at most /
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, either side) is wider than the bound, unless every run of one
  side beats every run of the other.

Simulated metrics, per-layer counts and the fingerprint are exact for a
fixed seed, so any difference there is reported as ``differs`` — that
is a behaviour change, not noise.  Host-side per-layer numbers come
from a single traced run and are shown for attribution only.

Exit code 1 on any ``worse`` or ``differs``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

from metrics import is_host, load_benchmark, spread, summarize


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """Verdict for B against A on one bounded host metric."""
    sign = 1 if better == "lower" else -1
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        if all(sign * y > sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    base = statistics.median(a)
    worsening = sign * (statistics.median(b) - base) / base
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def compare(a: Dict, b: Dict, bench: Dict) -> List[Dict]:
    """Rows for every workload x metric present in report *a*."""
    rows = []
    if (a["seed"], a["smoke"]) != (b["seed"], b["smoke"]):
        rows.append({"workload": "*", "metric": "seed/smoke", "verdict": "differs",
                     "a": f"{a['seed']}/{a['smoke']}", "b": f"{b['seed']}/{b['smoke']}"})
    for name, left in a["workloads"].items():
        right = b["workloads"][name]
        exact = {"sim_fingerprint": (left["fingerprint"], right["fingerprint"]),
                 "ops_failed": (left["failed"], right["failed"])}
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            x, y = left["end_to_end"][metric], right["end_to_end"][metric]
            if not is_host(metric):
                exact[metric] = (x, y)
                continue
            sx, sy = summarize(x), summarize(y)
            rows.append({"workload": name, "metric": metric, "a": sx, "b": sy,
                         "ratio": sy["median"] / sx["median"], "base": sx["median"],
                         "verdict": verdict(x, y, spec["better"], spec["bound"])})
        for metric, x in left["per_layer"].items():
            y = right["per_layer"][metric]
            if is_host(metric):
                rows.append({"workload": name, "metric": metric, "a": x, "b": y,
                             "ratio": y / x if x else None, "base": x, "verdict": "info"})
            else:
                exact[metric] = (x, y)
        for metric, (x, y) in exact.items():
            rows.append({"workload": name, "metric": metric, "a": x, "b": y,
                         "verdict": "same" if x == y else "differs"})
    return rows


def _side(value) -> str:
    if isinstance(value, dict):
        return (f"{value['median']:.6g} [{value['q1']:.6g}, {value['q3']:.6g}] "
                f"n={value['n']}")
    if isinstance(value, list):
        return "/".join(f"{v:.6g}" for v in value)
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_comparison(a: Dict, b: Dict, bench: Dict) -> int:
    """Print the table; returns the exit code."""
    rows = compare(a, b, bench)
    for row in rows:
        ratio = row.get("ratio")
        ratio_text = f"x{ratio:.4f} of {row['base']:.6g}" if ratio is not None else ""
        print(f"{row['workload']:16} {row['metric']:40} {row['verdict']:10} "
              f"A {_side(row['a']):44} B {_side(row['b']):44} {ratio_text}")
    bad = [r for r in rows if r["verdict"] in ("worse", "differs")]
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("same", "better", "worse", "unresolved", "differs")}
    print("summary: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="report of the parent commit")
    parser.add_argument("b", help="report of the change")
    args = parser.parse_args(argv)
    with open(args.a) as left, open(args.b) as right:
        return print_comparison(json.load(left), json.load(right), load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
