"""Zero-dependency static HTML campaign reports + the regression verdict.

The report is one self-contained HTML document: a summary table with an
inline SVG sparkline per cell (mean throughput across the stored commit
trajectory) and a per-cell breakdown of every commit's replicate
statistics.  No timestamps are embedded, so the same stored points
always render byte-identical HTML — the resume tests rely on that.

There is one verdict: the campaign's newest commit diffed against the
previous one in the stored trajectory (Mann-Whitney over the seed
replicates).
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.xpmt import stats
from repro.xpmt.spec import cell_label
from repro.xpmt.store import CampaignStore

__all__ = [
    "CellSeries",
    "build_report",
    "collect_cells",
    "diff_cells",
    "regression_verdict",
    "render_html",
]

#: The metric regressions are judged on (higher is better).
PRIMARY_METRIC = "throughput_mops"

#: Relative mean drop below which a cell is never flagged.
DEFAULT_MIN_DROP = 0.05

#: Mann-Whitney significance level for trajectory regressions.
DEFAULT_ALPHA = 0.05


@dataclass
class CellSeries:
    """One cell's stored trajectory: replicate values per commit."""

    spec_hash: str
    spec: Dict
    label: str
    #: Commit -> primary-metric values, one per stored seed.
    by_commit: Dict[str, List[float]] = field(default_factory=dict)
    #: Commit -> per-metric mean of the auxiliary metrics.
    aux_by_commit: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Commits ordered by first appearance in the store.
    commit_order: List[str] = field(default_factory=list)

    def values(self, commit: str) -> List[float]:
        return self.by_commit.get(commit, [])

    def head_commit(self) -> Optional[str]:
        return self.commit_order[-1] if self.commit_order else None

    def base_commit(self) -> Optional[str]:
        return self.commit_order[-2] if len(self.commit_order) >= 2 else None


AUX_METRICS = ("p50_us", "p99_us", "rtts_per_op")


def collect_cells(store: CampaignStore, campaign_id: str) -> List[CellSeries]:
    """The campaign's cells with their full cross-commit trajectories.

    Trajectory points are matched by spec hash across *all* campaigns
    in the store, so renaming a campaign does not orphan its history.
    """
    own_points = store.points(campaign_id=campaign_id)
    spec_hashes = sorted({p.spec_hash for p in own_points})
    if not spec_hashes:
        return []
    commit_order = store.commit_order(spec_hashes)
    rank = {commit: i for i, commit in enumerate(commit_order)}
    cells: List[CellSeries] = []
    for spec_hash in spec_hashes:
        points = sorted(store.points(spec_hash=spec_hash), key=lambda p: (rank[p.commit], p.seed))
        series = CellSeries(
            spec_hash=spec_hash,
            spec=points[0].spec,
            label=cell_label(points[0].spec),
        )
        aux_sums: Dict[str, Dict[str, List[float]]] = {}
        for point in points:
            value = float(point.metrics.get(PRIMARY_METRIC, 0.0))
            series.by_commit.setdefault(point.commit, []).append(value)
            sums = aux_sums.setdefault(point.commit, {})
            for metric in AUX_METRICS:
                if metric in point.metrics:
                    sums.setdefault(metric, []).append(float(point.metrics[metric]))
        for commit, sums in aux_sums.items():
            series.aux_by_commit[commit] = {
                metric: sum(vals) / len(vals) for metric, vals in sums.items()
            }
        series.commit_order = [c for c in commit_order if c in series.by_commit]
        cells.append(series)
    cells.sort(key=lambda s: (s.label, s.spec_hash))
    return cells


# -- verdict -----------------------------------------------------------------


def regression_verdict(
    cells: Sequence[CellSeries],
    alpha: float = DEFAULT_ALPHA,
    min_drop: float = DEFAULT_MIN_DROP,
) -> Dict:
    """Pass/fail verdict over each cell's head-vs-previous-commit diff."""
    problems: List[str] = []
    warnings: List[str] = []
    checks: List[Dict] = []
    for cell in cells:
        head, base = cell.head_commit(), cell.base_commit()
        check: Dict = {"cell": cell.label, "spec_hash": cell.spec_hash}
        if head is not None and base is not None:
            comparison = stats.compare(
                cell.values(base), cell.values(head), alpha=alpha, min_rel_drop=min_drop
            )
            check["trajectory"] = {"base": base, "head": head, **comparison}
            if comparison["regressed"]:
                problems.append(
                    f"{cell.label}: {comparison['rel_change'] * 100:+.1f}% vs "
                    f"{base[:12]} (p={comparison['p']:.3f})"
                )
            elif comparison["suspect"]:
                warnings.append(
                    f"{cell.label}: {comparison['rel_change'] * 100:+.1f}% vs "
                    f"{base[:12]} but not significant (p={comparison['p']:.3f})"
                )
        checks.append(check)
    return {"ok": not problems, "problems": problems, "warnings": warnings, "checks": checks}


def diff_cells(cells: Sequence[CellSeries], base: str, head: str) -> List[Dict]:
    """Per-cell comparison rows between two stored commits."""
    rows = []
    for cell in cells:
        old, new = cell.values(base), cell.values(head)
        if not old and not new:
            continue
        comparison = stats.compare(old, new)
        rows.append(
            {
                "cell": cell.label,
                "n_base": len(old),
                "n_head": len(new),
                "base_mean": round(comparison["old_mean"], 4),
                "head_mean": round(comparison["new_mean"], 4),
                "delta_pct": round(comparison["rel_change"] * 100, 2),
                "p": round(comparison["p"], 4),
                "verdict": "REGRESSED"
                if comparison["regressed"]
                else ("suspect" if comparison["suspect"] else "ok"),
            }
        )
    return rows


# -- HTML --------------------------------------------------------------------

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2em; color: #1a1a1a; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th { background: #f2f2f2; } td.l, th.l { text-align: left; }
.pass { color: #0a7d28; font-weight: bold; }
.fail { color: #b01818; font-weight: bold; }
.warn { color: #a06000; }
svg polyline { fill: none; stroke: #2060c0; stroke-width: 1.5; }
svg circle { fill: #b01818; }
code { background: #f6f6f6; padding: 0 0.2em; }
"""


def sparkline_svg(values: Sequence[float], width: int = 140, height: int = 28) -> str:
    """An inline SVG sparkline; the last point is marked with a dot."""
    if not values:
        return ""
    pad = 3.0
    lo, hi = min(values), max(values)
    spread = (hi - lo) or 1.0
    span_x = width - 2 * pad
    step = span_x / (len(values) - 1) if len(values) > 1 else 0.0
    coords = []
    for i, value in enumerate(values):
        x = pad + (step * i if len(values) > 1 else span_x / 2)
        y = pad + (height - 2 * pad) * (1.0 - (value - lo) / spread)
        coords.append((round(x, 1), round(y, 1)))
    points = " ".join(f"{x},{y}" for x, y in coords)
    last_x, last_y = coords[-1]
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
        f'<polyline points="{points}"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="2"/></svg>'
    )


def _fmt(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}f}"


def render_html(
    campaign_id: str,
    cells: Sequence[CellSeries],
    verdict: Dict,
) -> str:
    """The full static report document."""
    trajectory_by_hash = {c["spec_hash"]: c for c in verdict["checks"]}
    parts: List[str] = []
    parts.append("<!doctype html><html><head><meta charset='utf-8'>")
    parts.append(f"<title>campaign {html.escape(campaign_id)}</title>")
    parts.append(f"<style>{_CSS}</style></head><body>")
    parts.append(f"<h1>Campaign <code>{html.escape(campaign_id)}</code></h1>")
    status = "PASS" if verdict["ok"] else "FAIL"
    css = "pass" if verdict["ok"] else "fail"
    parts.append(f"<p>Regression verdict: <span class='{css}'>{status}</span></p>")
    for problem in verdict["problems"]:
        parts.append(f"<p class='fail'>&#10007; {html.escape(problem)}</p>")
    for warning in verdict["warnings"]:
        parts.append(f"<p class='warn'>&#9888; {html.escape(warning)}</p>")

    parts.append("<h2>Cells</h2><table>")
    parts.append(
        "<tr><th class='l'>cell</th><th>seeds</th><th>commits</th>"
        "<th>head mean (Mops)</th><th>&plusmn;95% CI</th><th>&Delta; vs prev</th>"
        "<th>p</th><th class='l'>trend</th></tr>"
    )
    for cell in cells:
        head = cell.head_commit()
        head_values = cell.values(head) if head else []
        summary = stats.summarize(head_values)
        check = trajectory_by_hash.get(cell.spec_hash, {})
        trajectory = check.get("trajectory")
        if trajectory:
            delta = f"{trajectory['rel_change'] * 100:+.1f}%"
            p_text = _fmt(trajectory["p"], 3)
        else:
            delta, p_text = "-", "-"
        means = [stats.summarize(cell.values(c))["mean"] for c in cell.commit_order]
        parts.append(
            f"<tr><td class='l'>{html.escape(cell.label)}</td>"
            f"<td>{summary['n']}</td><td>{len(cell.commit_order)}</td>"
            f"<td>{_fmt(summary['mean'])}</td><td>{_fmt(summary['ci95'])}</td>"
            f"<td>{delta}</td><td>{p_text}</td>"
            f"<td class='l'>{sparkline_svg(means)}</td></tr>"
        )
    parts.append("</table>")

    for cell in cells:
        parts.append(f"<h2>{html.escape(cell.label)}</h2>")
        parts.append(f"<p>spec <code>{cell.spec_hash}</code></p>")
        parts.append(
            "<table><tr><th class='l'>commit</th><th>n</th><th>mean</th>"
            "<th>stdev</th><th>&plusmn;95% CI</th><th>p50 &micro;s</th>"
            "<th>p99 &micro;s</th><th>rtts/op</th></tr>"
        )
        for commit in cell.commit_order:
            summary = stats.summarize(cell.values(commit))
            aux = cell.aux_by_commit.get(commit, {})
            parts.append(
                f"<tr><td class='l'><code>{html.escape(commit[:12])}</code></td>"
                f"<td>{summary['n']}</td><td>{_fmt(summary['mean'])}</td>"
                f"<td>{_fmt(summary['stdev'])}</td><td>{_fmt(summary['ci95'])}</td>"
                f"<td>{_fmt(aux.get('p50_us', 0.0), 2)}</td>"
                f"<td>{_fmt(aux.get('p99_us', 0.0), 2)}</td>"
                f"<td>{_fmt(aux.get('rtts_per_op', 0.0), 2)}</td></tr>"
            )
        parts.append("</table>")
        parts.append(
            "<details><summary>spec payload</summary><pre>"
            f"{html.escape(json.dumps(cell.spec, indent=2, sort_keys=True))}"
            "</pre></details>"
        )
    parts.append("</body></html>")
    return "\n".join(parts)


def build_report(
    store: CampaignStore,
    campaign_id: str,
    alpha: float = DEFAULT_ALPHA,
    min_drop: float = DEFAULT_MIN_DROP,
) -> Tuple[str, Dict]:
    """Collect, judge, and render one campaign: ``(html, verdict)``."""
    cells = collect_cells(store, campaign_id)
    verdict = regression_verdict(cells, alpha=alpha, min_drop=min_drop)
    return render_html(campaign_id, cells, verdict), verdict
