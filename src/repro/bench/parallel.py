"""Parallel sweep execution over independent measurement points.

Every figure sweep is a list of independent
:class:`~repro.bench.runner.PointSpec` runs: each point builds its own
cluster, seeds its own RNGs from the point's
:class:`~repro.config.ClusterConfig`, and shares no mutable state with
its neighbours.  That makes fan-out across worker processes safe — and
the determinism contract cheap to state:

* a point's result depends only on its :class:`PointSpec` (the spec
  carries the seed inside its cluster config), never on which process
  ran it or in what order;
* results are merged back in **spec order** (``executor.map`` preserves
  input order), so serial and parallel sweeps produce byte-identical
  row lists.

The worker count is the ``jobs`` argument (figure sweeps pass
``Scale.jobs``), else ``cpu_count() - 1`` (floor 1).  ``jobs=1`` runs
inline with no pool, which is also the forced path while an
observability recording is active — phase spans and the event bus do
not cross process boundaries.  Workers need no inherited environment:
every spec is fully resolved in the parent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bench.metrics import RunResult
from repro.bench.runner import PointSpec
from repro.obs import active_recording


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count to use: *jobs*, else cores - 1; never below 1.

    ``REPRO_JOBS`` is resolved where a ``Scale`` is built, not here.
    """
    if jobs is None:
        jobs = (os.cpu_count() or 2) - 1
    return max(1, int(jobs))


def run_sweep(specs: Iterable[PointSpec],
              jobs: Optional[int] = None) -> List[RunResult]:
    """Run every spec, fanning out over processes; results in spec order."""
    specs = list(specs)
    if not specs:
        return []
    workers = min(resolve_jobs(jobs), len(specs))
    if workers <= 1 or active_recording() is not None:
        return [spec.run() for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(PointSpec.run, specs))


def sweep_rows(specs: Sequence[PointSpec],
               jobs: Optional[int] = None) -> List[Dict]:
    """Summary rows for every spec, with each spec's ``extra`` merged in."""
    rows: List[Dict] = []
    for spec, result in zip(specs, run_sweep(specs, jobs)):
        row = result.summary()
        row.update(dict(spec.extra))
        rows.append(row)
    return rows
