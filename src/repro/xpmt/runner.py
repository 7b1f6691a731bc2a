"""The resumable campaign runner.

Layered on :mod:`repro.bench.parallel`: a campaign's missing points
(the record's :class:`~repro.bench.runner.PointSpec` instances without a
``(commit, seed, spec_hash)`` row in the store) are fanned out through
:func:`~repro.bench.parallel.sweep_rows`, exactly as ``repro run`` sweeps
the record, and each stores the row that sweep would print.  Stored
points are never re-executed and never overwritten — interrupt a
campaign at any moment and the next ``run`` picks up the remainder.

Each replicate's seed is the seed of the scale its points are built
at, so it sits in the point's cluster config, which seeds the dataset,
the workload streams, and every other RNG in the simulation: a stored
point is reproducible point-by-point from its key alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.parallel import sweep_rows
from repro.xpmt.spec import CampaignPlan, current_commit
from repro.xpmt.store import CampaignStore

__all__ = ["RunSummary", "run_campaign", "campaign_status"]


@dataclass
class RunSummary:
    """What one ``campaign run`` invocation did."""

    campaign_id: str
    commit: str
    total: int
    executed: int
    skipped: int
    #: Points still missing after this run (only with ``limit``).
    remaining: int
    executed_keys: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.remaining == 0

    def describe(self) -> str:
        text = (
            f"campaign {self.campaign_id} @ {self.commit[:12]}: "
            f"{self.executed} executed, {self.skipped} skipped (stored), "
            f"{self.total} total"
        )
        if self.remaining:
            text += f", {self.remaining} remaining"
        return text


def run_campaign(
    store: CampaignStore,
    plan: CampaignPlan,
    jobs: Optional[int] = None,
    limit: Optional[int] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> RunSummary:
    """Run (or resume) *plan* against *store*; returns what happened.

    ``limit`` caps how many missing points execute in this invocation —
    the hook the resume tests use to interrupt a campaign mid-sweep, and
    a budget valve for huge matrices.
    """
    commit = current_commit()
    campaign_id = plan.campaign_id
    store.upsert_campaign(campaign_id, plan.name, commit, plan.describe())
    targets = plan.targets()
    missing = [
        (point, seed, digest, payload)
        for point, seed, digest, payload in targets
        if not store.has_point(commit, seed, digest)
    ]
    to_run = missing if limit is None else missing[: max(0, limit)]
    if echo is not None:
        echo(
            f"[campaign {campaign_id}] {len(targets)} points, "
            f"{len(targets) - len(missing)} stored, running {len(to_run)}"
        )
    rows = sweep_rows([point for point, _, _, _ in to_run], jobs=jobs)
    executed_keys = []
    for (_, seed, digest, payload), row in zip(to_run, rows):
        store.put_point(commit, seed, digest, payload, row, campaign_id=campaign_id)
        executed_keys.append((seed, digest))
    return RunSummary(
        campaign_id=campaign_id,
        commit=commit,
        total=len(targets),
        executed=len(to_run),
        skipped=len(targets) - len(missing),
        remaining=len(missing) - len(to_run),
        executed_keys=executed_keys,
    )


def campaign_status(store: CampaignStore) -> List[Dict]:
    """One status row per recorded campaign (for the CLI table)."""
    commit = current_commit()
    rows = []
    for campaign in store.campaigns():
        spec = campaign["spec"]
        rows.append(
            {
                "id": campaign["id"],
                "name": campaign["name"] or "-",
                "figure": spec.get("figure", "?"),
                "points": spec.get("points", 0),
                "seeds": len(spec.get("seeds", ())),
                "expected": spec.get("points", 0) * len(spec.get("seeds", ())),
                "stored": store.point_count(campaign_id=campaign["id"]),
                "at_commit": store.point_count(campaign_id=campaign["id"], commit=commit),
                "scale": spec.get("scale", "?"),
            }
        )
    return rows
