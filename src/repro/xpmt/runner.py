"""The resumable campaign runner.

Layered on :mod:`repro.bench.parallel`: a campaign's missing points
(those without a ``(commit, seed, spec_hash)`` row in the store) are
materialized as :class:`~repro.bench.runner.PointSpec` instances and
fanned out through :func:`~repro.bench.parallel.run_sweep`, so a
campaign parallelizes exactly like the figure sweeps do.  Stored points
are never re-executed and never overwritten — interrupt a campaign at
any moment and the next ``run`` picks up the remainder.

Each replicate's seed is threaded into the point's cluster config, which
seeds the dataset, the workload streams, and every other RNG in the
simulation: a stored point is reproducible point-by-point from its key
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.parallel import run_sweep
from repro.bench.runner import PointSpec
from repro.xpmt.spec import CampaignPlan, CellSpec, current_commit
from repro.xpmt.store import CampaignStore

__all__ = ["RunSummary", "build_point_spec", "run_campaign", "campaign_status"]


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


def build_point_spec(plan: CampaignPlan, cell: CellSpec, seed: int) -> PointSpec:
    """The picklable sweep point for one (cell, seed) replicate."""
    scale = plan.scale
    # Every knob a cell carries is pinned explicitly (num_shards too:
    # one sub-tree per MN when the cell scales MNs out), so a stored
    # point depends on its cell, never on the plan's scale having
    # picked up ambient knobs.
    config = scale.cluster_config(
        clients=cell.clients,
        seed=seed,
        sync_mode=cell.sync_mode,
        num_mns=cell.num_mns,
        num_shards=cell.num_mns if cell.num_mns > 1 else 0,
        pipeline_depth=cell.depth,
    )
    return scale.point(
        cell.index,
        cell.workload,
        config,
        overrides=dict(plan.chime_overrides),
        value_size=cell.value_size,
        span=cell.span,
        neighborhood=cell.neighborhood,
        theta=cell.theta,
    )


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
        (cell, seed, digest, payload)
        for cell, seed, digest, payload in targets
        if not store.has_point(commit, seed, digest)
    ]
    to_run = missing if limit is None else missing[: max(0, limit)]
    if echo is not None:
        echo(
            f"[campaign {campaign_id}] {len(targets)} points, "
            f"{len(targets) - len(missing)} stored, running {len(to_run)}"
        )
    specs = [build_point_spec(plan, cell, seed) for cell, seed, _, _ in to_run]
    results = run_sweep(specs, jobs=jobs)
    executed_keys = []
    for (cell, seed, digest, payload), result in zip(to_run, results):
        store.put_point(
            commit,
            seed,
            digest,
            payload,
            result.summary(),
            campaign_id=campaign_id,
        )
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
        expected = len(spec.get("cells", ())) * len(spec.get("seeds", ()))
        rows.append(
            {
                "id": campaign["id"],
                "name": campaign["name"] or "-",
                "cells": len(spec.get("cells", ())),
                "seeds": len(spec.get("seeds", ())),
                "expected": expected,
                "stored": store.point_count(campaign_id=campaign["id"]),
                "at_commit": store.point_count(campaign_id=campaign["id"], commit=commit),
                "scale": spec.get("scale", {}).get("name", "?"),
            }
        )
    return rows
