"""repro.xpmt — the experiment campaign service.

A fuzzbench-style layer over the figure sweeps:

* :mod:`repro.xpmt.spec` — deterministic sweep-cell specs and their
  content hashes; points are keyed ``(commit, seed, spec_hash)``;
* :mod:`repro.xpmt.store` — the sqlite campaign store (stdlib only);
* :mod:`repro.xpmt.runner` — the resumable multi-seed runner layered on
  :mod:`repro.bench.parallel` (stored points are skipped, never redone);
* :mod:`repro.xpmt.stats` — replicate mean/CI and Mann-Whitney checks;
* :mod:`repro.xpmt.report` — static HTML reports with SVG sparklines
  and the regression verdict against the stored trajectory;
* :mod:`repro.xpmt.record` — the ``record_table`` fixture's JSONL and
  store routing.

Surfaced as ``python -m repro campaign run|status|report|diff``.
"""

from repro.xpmt.report import build_report, collect_cells, diff_cells
from repro.xpmt.runner import RunSummary, campaign_status, run_campaign
from repro.xpmt.spec import CampaignPlan, CellSpec, current_commit, spec_hash
from repro.xpmt.store import CampaignStore, PointRow

__all__ = [
    "CampaignPlan",
    "CampaignStore",
    "CellSpec",
    "PointRow",
    "RunSummary",
    "build_report",
    "campaign_status",
    "collect_cells",
    "current_commit",
    "diff_cells",
    "run_campaign",
    "spec_hash",
]
