"""Campaign plans and the content hashes of their points.

A campaign is a figure record run over seeds: for each seed, the
record's grid (the union of its bench tables' axes slices, or its
default grid if it has none) at ``replace(scale, seed=s)``.  Each
(point, seed) pair is stored in the campaign store keyed by
``(commit, seed, spec_hash)``.

The spec hash is taken over the :class:`~repro.bench.runner.PointSpec`
itself, seed removed, so a point's seeds share one hash and every field
that decides a result re-keys it.  Any ``REPRO_*`` environment variable
no knob owns is hashed too; known knobs either reach the point's fields
or cannot change a result (jobs, the commit key), and hashing the raw
environment would alias identical runs apart.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.bench.figures import FIGURES, Figure, Table
from repro.bench.runner import PointSpec
from repro.bench.scale import Scale
from repro.config import KNOWN_ENV_VARS, env_value, repro_environ

__all__ = [
    "CampaignPlan",
    "current_commit",
    "point_label",
    "relevant_env",
    "spec_hash",
    "spec_payload",
]

#: Spec-payload schema version; bump when the payload shape changes so
#: old stored points can never collide with new ones.
SPEC_VERSION = 2


def relevant_env() -> Dict[str, str]:
    """Unknown ``REPRO_*`` environment variables, for the spec payload.

    No known knob re-keys a campaign point: a knob reaches the point's
    fields through the plan's scale, or cannot change a result.
    """
    return {
        key: value for key, value in sorted(repro_environ().items()) if key not in KNOWN_ENV_VARS
    }


def current_commit() -> str:
    """The commit hash results are keyed under.

    ``REPRO_COMMIT`` overrides (tests and CI matrix builds use this to
    fabricate trajectories); otherwise ``git rev-parse HEAD``; falls
    back to ``"unknown"`` outside a checkout.
    """
    override = env_value("commit")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def spec_payload(point: PointSpec) -> Dict:
    """The canonical (JSON-stable) description one spec hash covers:
    the point with its cluster config as a dict, seed removed."""
    fields = asdict(point)
    del fields["cluster_config"]["seed"]
    return {"v": SPEC_VERSION, "point": fields, "env": relevant_env()}


def spec_hash(payload: Dict) -> str:
    """A 16-hex-digit content hash of a canonical spec payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def point_label(row: Mapping, extra: Sequence[Sequence[Any]] = ()) -> str:
    """``index/workload cN`` of a sweep row, then its *extra* pairs (the
    point's ``extra`` fields, which tell a record's points apart)."""
    text = f"{row.get('index', '?')}/{row.get('workload', '?')} c{row.get('clients', '?')}"
    return text + "".join(f" {name}={row.get(name, value)}" for name, value in extra)


@dataclass(frozen=True)
class CampaignPlan:
    """A figure record's grid over *seeds* at one scale: the union of
    *tables*' axes slices, or the default grid if *tables* is empty."""

    figure: Figure
    tables: Tuple[Table, ...]
    scale: Scale
    seeds: Tuple[int, ...]
    name: str = ""

    @classmethod
    def of(cls, target: str, scale: Scale, seeds: Sequence[int], name: str = "") -> "CampaignPlan":
        """The plan of a grid record (all its tables) or of one bench
        table; ValueError for a probe record or an unknown name."""
        grids = ", ".join(figure.name for figure in FIGURES.values() if figure.grid is not None)
        for figure in FIGURES.values():
            tables = [table for table in figure.tables if table.name == target]
            if target != figure.name and not tables:
                continue
            if figure.grid is None:
                raise ValueError(
                    f"{figure.name} is a probe record (it returns rows, not points); "
                    f"grid records: {grids} or one of their bench tables"
                )
            return cls(figure, tuple(tables) or figure.tables, scale, tuple(seeds), name)
        raise ValueError(
            f"unknown figure or table {target!r}; "
            f"grid records: {grids} or one of their bench tables"
        )

    def points(self, seed: int) -> List[Tuple[PointSpec, str, Dict]]:
        """Every distinct ``(point, spec_hash, payload)`` at *seed*, in
        grid order (a point two tables share runs once)."""
        scale = replace(self.scale, seed=seed)
        slices = [table.axes for table in self.tables] or [{}]
        out: Dict[str, Tuple[PointSpec, str, Dict]] = {}
        for axes in slices:
            for point in self.figure.grid(scale, **axes):
                payload = spec_payload(point)
                digest = spec_hash(payload)
                out.setdefault(digest, (point, digest, payload))
        return list(out.values())

    def targets(self) -> List[Tuple[PointSpec, int, str, Dict]]:
        """Every ``(point, seed, spec_hash, payload)``, in plan order."""
        return [
            (point, seed, digest, payload)
            for seed in self.seeds
            for point, digest, payload in self.points(seed)
        ]

    def table_hashes(self) -> Dict[str, List[str]]:
        """Each table's point hashes (a hash holds for every seed)."""
        scale = replace(self.scale, seed=self.seeds[0])
        return {
            table.name: [
                spec_hash(spec_payload(point)) for point in self.figure.grid(scale, **table.axes)
            ]
            for table in self.tables
        }

    @property
    def campaign_id(self) -> str:
        """Explicit name, else ``<figure>-<digest>`` of its points and seeds.

        Deterministic so rerunning the same command resumes the same
        campaign instead of forking a new one.
        """
        if self.name:
            return self.name
        hashes = [digest for _, digest, _ in self.points(self.seeds[0])]
        digest = spec_hash({"points": hashes, "seeds": list(self.seeds)})
        return f"{self.figure.name}-{digest[:10]}"

    def describe(self) -> Dict:
        """JSON-stable plan description stored in the campaigns table;
        the report judges each table's claims on its hashes' rows."""
        return {
            "name": self.name,
            "figure": self.figure.name,
            "tables": self.table_hashes(),
            "points": len(self.points(self.seeds[0])),
            "seeds": list(self.seeds),
            "scale": self.scale.name,
        }
