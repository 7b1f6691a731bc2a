"""Parallel sweep execution over independent measurement points.

Every figure sweep is a list of independent ``run_point`` invocations:
each point builds its own cluster, seeds its own RNGs from the point's
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
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.metrics import RunResult
from repro.bench.runner import run_point
from repro.config import ClusterConfig
from repro.obs import active_recording


def derive_seed(base_seed: int, *components: Any) -> int:
    """A stable per-point seed from a base seed and labelling components.

    Uses CRC32 over the repr of the components, so the result is
    reproducible across processes and interpreter runs (unlike ``hash``,
    which is salted by PYTHONHASHSEED).
    """
    digest = zlib.crc32(repr(components).encode("utf-8"))
    return (base_seed * 1_000_003 + digest) & 0x7FFFFFFF


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count to use: *jobs*, else cores - 1; never below 1.

    ``REPRO_JOBS`` is resolved where a ``Scale`` is built, not here.
    """
    if jobs is None:
        jobs = (os.cpu_count() or 2) - 1
    return max(1, int(jobs))


@dataclass(frozen=True)
class PointSpec:
    """One picklable measurement point: the arguments of ``run_point``
    plus ``extra`` row fields merged into the result's summary row.

    Every run-level knob (depth, placement, sync mode, sharding) is a
    field of ``cluster_config``, so a point never depends on the
    environment of the process that runs it."""

    index_name: str
    workload_name: str
    num_keys: int
    ops_per_client: int
    cluster_config: ClusterConfig
    value_size: int = 8
    span: Optional[int] = None
    neighborhood: Optional[int] = None
    theta: float = 0.99
    chime_overrides: Optional[dict] = None
    key_space: int = 0
    unlimited_cache_for: Tuple[str, ...] = ("smart-opt",)
    extra: Tuple[Tuple[str, Any], ...] = ()

    def with_extra(self, **fields: Any) -> "PointSpec":
        """A copy with additional summary-row fields."""
        return replace(self, extra=self.extra + tuple(fields.items()))


def run_spec(spec: PointSpec) -> RunResult:
    """Execute one point (also the worker entry point — must pickle)."""
    return run_point(
        spec.index_name, spec.workload_name, spec.num_keys,
        spec.ops_per_client, spec.cluster_config,
        value_size=spec.value_size, span=spec.span,
        neighborhood=spec.neighborhood, theta=spec.theta,
        chime_overrides=dict(spec.chime_overrides)
        if spec.chime_overrides is not None else None,
        key_space=spec.key_space,
        unlimited_cache_for=spec.unlimited_cache_for)


def run_sweep(specs: Iterable[PointSpec],
              jobs: Optional[int] = None) -> List[RunResult]:
    """Run every spec, fanning out over processes; results in spec order."""
    specs = list(specs)
    if not specs:
        return []
    workers = min(resolve_jobs(jobs), len(specs))
    if workers <= 1 or active_recording() is not None:
        return [run_spec(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_spec, specs))


def sweep_rows(specs: Sequence[PointSpec],
               jobs: Optional[int] = None) -> List[Dict]:
    """Summary rows for every spec, with each spec's ``extra`` merged in."""
    rows: List[Dict] = []
    for spec, result in zip(specs, run_sweep(specs, jobs)):
        row = result.summary()
        row.update(dict(spec.extra))
        rows.append(row)
    return rows
