"""Deterministic campaign specs and their content hashes.

A campaign is a cross-product of *cells* (index family x workload x
client count x pipeline depth, plus the per-point knobs a
:class:`~repro.bench.runner.PointSpec` accepts) and *seeds*.  Each
(cell, seed) pair is one sweep point, persisted in the campaign store
keyed by ``(commit, seed, spec_hash)``.

The spec hash must never alias across configurations: it covers the
cell's own fields, the resolved scale preset (name *and* the concrete
numbers, so an edited preset re-keys), the CHIME overrides the runner
will apply, and any ``REPRO_*`` environment variable the runner does
not pin.  Knobs whose values are first-class hash fields, or that cannot
change a point's result (jobs, the commit key), are excluded from the
environment section — including the raw environment too would alias
identical runs apart.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.bench.scale import Scale
from repro.config import KNOWN_ENV_VARS, env_value, repro_environ

__all__ = [
    "CellSpec",
    "CampaignPlan",
    "cell_label",
    "current_commit",
    "relevant_env",
    "spec_hash",
]

#: Spec-payload schema version; bump when the payload shape changes so
#: old stored points can never collide with new ones.
SPEC_VERSION = 1


def relevant_env() -> Dict[str, str]:
    """Unknown ``REPRO_*`` environment variables, for the spec payload.

    No known knob re-keys a campaign point: cells pin them (payload
    fields), or they cannot change a result.
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


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell: everything but the seed and the commit."""

    index: str
    workload: str
    clients: int
    depth: int = 1
    value_size: int = 8
    theta: float = 0.99
    span: Optional[int] = None
    neighborhood: Optional[int] = None
    #: Lock synchronization mode (see :mod:`repro.core.adaptive`).
    sync_mode: str = "optimistic"
    #: Memory nodes; > 1 shards the key space one shard per MN (see
    #: :mod:`repro.cluster.shards`).
    num_mns: int = 1

    def label(self) -> str:
        """Compact human label (see :func:`cell_label`)."""
        return cell_label({"cell": _cell_payload(self)})


#: The cell fields of the v1 payload: always hashed, even at default.
_V1_CELL_FIELDS = ("index", "workload", "clients", "depth", "value_size",
                   "theta", "span", "neighborhood")


def _cell_payload(cell: CellSpec) -> Dict:
    """A cell's hash payload fields.

    Every field added after the v1 payload is omitted at its dataclass
    default, so spec hashes and auto campaign ids minted before the
    field existed still resolve to the same stored points; a
    non-default value re-keys.
    """
    return {f.name: getattr(cell, f.name) for f in fields(cell)
            if f.name in _V1_CELL_FIELDS
            or getattr(cell, f.name) != f.default}


def cell_label(spec: Dict) -> str:
    """Compact human label of a stored spec payload: the cell's fields
    that differ from their defaults, then the scale name if recorded.

    Works on the payload dict because that is all a report has; every
    field that re-keys a cell must show here, or two distinct cells
    print alike.
    """
    cell = spec.get("cell", {})
    text = f"{cell.get('index', '?')}/{cell.get('workload', '?')} c{cell.get('clients', '?')}"
    if cell.get("depth", 1) != 1:
        text += f" d{cell['depth']}"
    if cell.get("value_size", 8) != 8:
        text += f" v{cell['value_size']}"
    if cell.get("span") is not None:
        text += f" s{cell['span']}"
    if cell.get("neighborhood") is not None:
        text += f" h{cell['neighborhood']}"
    if cell.get("sync_mode", "optimistic") != "optimistic":
        text += f" {cell['sync_mode']}"
    if cell.get("num_mns", 1) != 1:
        text += f" m{cell['num_mns']}"
    scale = spec.get("scale", {}).get("name")
    if scale:
        text += f" [{scale}]"
    return text


def _scale_payload(scale: Scale) -> Dict:
    return {
        "name": scale.name,
        "num_keys": scale.num_keys,
        "ops_per_client": scale.ops_per_client,
        "nic_scale": scale.nic_scale,
        "num_mns": scale.num_mns,
        "key_space_factor": scale.key_space_factor,
    }


def spec_payload(cell: CellSpec, scale: Scale, chime_overrides: Optional[Dict] = None) -> Dict:
    """The canonical (JSON-stable) description one spec hash covers."""
    return {
        "v": SPEC_VERSION,
        "cell": _cell_payload(cell),
        "scale": _scale_payload(scale),
        "chime_overrides": dict(chime_overrides) if chime_overrides else None,
        "env": relevant_env(),
    }


def spec_hash(payload: Dict) -> str:
    """A 16-hex-digit content hash of a canonical spec payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignPlan:
    """A campaign: cells x seeds at one scale, with a stable identity."""

    scale: Scale
    cells: Tuple[CellSpec, ...]
    seeds: Tuple[int, ...]
    name: str = ""
    #: Extra CHIME overrides applied on top of the scale's own (rare).
    chime_overrides: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    @property
    def campaign_id(self) -> str:
        """Explicit name, else a content-derived ``auto-<digest>`` id.

        Deterministic so rerunning the same command resumes the same
        campaign instead of forking a new one.
        """
        if self.name:
            return self.name
        digest = spec_hash(
            {
                "scale": _scale_payload(self.scale),
                "cells": [_cell_payload(cell) for cell in self.cells],
                "seeds": list(self.seeds),
            }
        )
        return f"auto-{digest[:10]}"

    def describe(self) -> Dict:
        """JSON-stable plan description stored in the campaigns table."""
        return {
            "name": self.name,
            "scale": _scale_payload(self.scale),
            "cells": [_cell_payload(cell) for cell in self.cells],
            "seeds": list(self.seeds),
            "chime_overrides": dict(self.chime_overrides) or None,
        }

    def cell_overrides(self, cell: CellSpec) -> Optional[Dict]:
        """The CHIME overrides the runner applies to *cell*'s points."""
        return self.scale.chime_overrides(cell.index, **dict(self.chime_overrides))

    def targets(self) -> List[Tuple[CellSpec, int, str, Dict]]:
        """Every (cell, seed, spec_hash, payload) point, in plan order."""
        out = []
        for cell in self.cells:
            payload = spec_payload(cell, self.scale, self.cell_overrides(cell))
            digest = spec_hash(payload)
            for seed in self.seeds:
                out.append((cell, seed, digest, payload))
        return out
