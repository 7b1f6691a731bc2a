"""Campaign reports + the regression verdict.

The report is plain text printed through
:func:`repro.bench.report.format_table`, the renderer every figure table
uses: the verdict lines, one row per cell (a stored point's label,
head-commit mean, its CI, the change against the previous commit and the
per-commit means as the trend), then every commit's replicate
statistics, each cell's spec payload and, per seed, the figure record's
claims on its stored rows at the head commit.  No timestamps are
printed, so the same stored points always render byte-identical text —
the resume tests rely on that.

There is one verdict: the campaign's newest commit diffed against the
previous one in the stored trajectory (Mann-Whitney over the seed
replicates).  The claims table is advisory: it does not move the exit
code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.figures import FIGURES
from repro.bench.report import format_table
from repro.xpmt import stats
from repro.xpmt.spec import point_label
from repro.xpmt.store import CampaignStore

__all__ = [
    "CellSeries",
    "build_report",
    "claim_rows",
    "collect_cells",
    "diff_cells",
    "regression_verdict",
    "render_text",
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
            label=point_label(points[0].metrics, points[0].spec.get("point", {}).get("extra", ())),
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


def claim_rows(store: CampaignStore, campaign_id: str) -> List[Dict]:
    """Each claim of the campaign's bench tables, judged per stored seed
    on the table's rows at the head commit (``-``: a seed lacks a row)."""
    spec = next((c["spec"] for c in store.campaigns() if c["id"] == campaign_id), {})
    figure = FIGURES.get(spec.get("figure", ""))
    tables = spec.get("tables") or {}
    hashes = sorted({digest for table_hashes in tables.values() for digest in table_hashes})
    commits = store.commit_order(hashes) if figure is not None and hashes else []
    if not commits:
        return []
    stored = {
        (point.seed, point.spec_hash): point.metrics
        for digest in hashes
        for point in store.points(spec_hash=digest, commit=commits[-1])
    }
    seeds = sorted({seed for seed, _ in stored})
    rows = []
    for table in figure.tables:
        if table.name not in tables:
            continue
        failed = {}
        for seed in seeds:
            found = [stored.get((seed, digest)) for digest in tables[table.name]]
            if None not in found:
                failed[seed] = set(figure.failed_claims(table, found))
        for claim in table.claims:
            name = f"{figure.name}.{claim.name}"
            verdicts = {f"seed {seed}": "-" for seed in seeds}
            for seed, broken in failed.items():
                verdicts[f"seed {seed}"] = "FAILS" if name in broken else "holds"
            holding = sum(verdict == "holds" for verdict in verdicts.values())
            row = {"table": table.name, "claim": name, "holds": f"{holding}/{len(failed)}"}
            rows.append({**row, **verdicts})
    return rows


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


# -- text --------------------------------------------------------------------


def _f4(value: float) -> str:
    """Means and CIs at four decimals (``format_table`` prints three)."""
    return f"{value:.4f}"


def render_text(
    campaign_id: str, cells: Sequence[CellSeries], verdict: Dict, claims: Sequence[Dict] = ()
) -> str:
    """The report: verdict lines, then the cell, per-commit, spec and
    (if the campaign's record has any) claims tables."""
    status = "PASS" if verdict["ok"] else "FAIL"
    lines = [
        f"campaign {campaign_id}: {status} — {len(verdict['checks'])} cells, "
        f"{len(verdict['problems'])} regressions, {len(verdict['warnings'])} warnings"
    ]
    lines += [f"regression: {problem}" for problem in verdict["problems"]]
    lines += [f"warning: {warning}" for warning in verdict["warnings"]]
    trajectory_by_hash = {c["spec_hash"]: c.get("trajectory") for c in verdict["checks"]}
    cell_rows, commit_rows, spec_rows = [], [], []
    for cell in cells:
        head = stats.summarize(cell.values(cell.head_commit()))
        trajectory = trajectory_by_hash.get(cell.spec_hash)
        means = [stats.summarize(cell.values(c))["mean"] for c in cell.commit_order]
        cell_rows.append(
            {
                "cell": cell.label,
                "seeds": head["n"],
                "commits": len(cell.commit_order),
                "head_mean": _f4(head["mean"]),
                "ci95": _f4(head["ci95"]),
                "delta_vs_prev": f"{trajectory['rel_change'] * 100:+.1f}%" if trajectory else "-",
                "p": trajectory["p"] if trajectory else "-",
                "trend": " ".join(_f4(mean) for mean in means),
            }
        )
        for commit in cell.commit_order:
            summary = stats.summarize(cell.values(commit))
            aux = cell.aux_by_commit.get(commit, {})
            commit_rows.append(
                {
                    "cell": cell.label,
                    "commit": commit[:12],
                    "n": summary["n"],
                    "mean": _f4(summary["mean"]),
                    "stdev": _f4(summary["stdev"]),
                    "ci95": _f4(summary["ci95"]),
                    **{metric: aux.get(metric, 0.0) for metric in AUX_METRICS},
                }
            )
        spec_rows.append(
            {
                "cell": cell.label,
                "spec_hash": cell.spec_hash,
                "spec": json.dumps(cell.spec, sort_keys=True),
            }
        )
    tables = [
        format_table(cell_rows, title=f"cells ({PRIMARY_METRIC}; trend = mean per commit)"),
        format_table(commit_rows, title="per commit"),
        format_table(spec_rows, title="specs"),
    ]
    if claims:
        tables.append(format_table(claims, title="claims at the head commit (advisory)"))
    return "\n".join(lines) + "\n\n" + "\n\n".join(tables)


def build_report(
    store: CampaignStore,
    campaign_id: str,
    alpha: float = DEFAULT_ALPHA,
    min_drop: float = DEFAULT_MIN_DROP,
) -> Tuple[str, Dict]:
    """Collect, judge, and render one campaign: ``(text, verdict)``."""
    cells = collect_cells(store, campaign_id)
    verdict = regression_verdict(cells, alpha=alpha, min_drop=min_drop)
    claims = claim_rows(store, campaign_id)
    return render_text(campaign_id, cells, verdict, claims), verdict
