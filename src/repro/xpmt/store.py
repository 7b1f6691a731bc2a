"""The sqlite campaign store (stdlib ``sqlite3`` only).

Every sweep point ever executed is persisted keyed by
``(commit, seed, spec_hash)`` — the primary key — so campaigns are
incremental across reruns and across PRs: a resumed campaign skips
stored points, and a later commit's campaign lays a new layer of the
same spec hashes next to the old ones, forming the per-cell trajectory
the report's trend and regression checks read.

One secondary table rides along: ``campaigns`` (plan descriptions, so
``status`` can report progress without re-deriving the matrix).  The
points table is the only result sink here; figure tables are text under
``benchmarks/results/``.  A store written before that still opens: its
old ``figure_tables`` table stays in the file, unread.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["CampaignStore", "PointRow"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS points (
    commit_hash TEXT NOT NULL,
    seed INTEGER NOT NULL,
    spec_hash TEXT NOT NULL,
    campaign_id TEXT NOT NULL DEFAULT '',
    spec_json TEXT NOT NULL,
    metrics_json TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (commit_hash, seed, spec_hash)
);
CREATE INDEX IF NOT EXISTS idx_points_spec ON points (spec_hash);
CREATE INDEX IF NOT EXISTS idx_points_campaign ON points (campaign_id);
CREATE TABLE IF NOT EXISTS campaigns (
    id TEXT PRIMARY KEY,
    name TEXT NOT NULL DEFAULT '',
    commit_hash TEXT NOT NULL,
    spec_json TEXT NOT NULL,
    created_at REAL NOT NULL
);
"""


@dataclass(frozen=True)
class PointRow:
    """One stored sweep point, decoded."""

    commit: str
    seed: int
    spec_hash: str
    campaign_id: str
    spec: Dict
    metrics: Dict
    created_at: float


class CampaignStore:
    """Connection-owning wrapper around the campaign sqlite database."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- campaigns ----------------------------------------------------------

    def upsert_campaign(self, campaign_id: str, name: str, commit: str, spec: Dict) -> None:
        """Record (or refresh) a campaign's plan description."""
        self._conn.execute(
            "INSERT INTO campaigns (id, name, commit_hash, spec_json, created_at)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT(id) DO UPDATE SET"
            " name = excluded.name, commit_hash = excluded.commit_hash,"
            " spec_json = excluded.spec_json",
            (campaign_id, name, commit, json.dumps(spec, sort_keys=True), time.time()),
        )
        self._conn.commit()

    def campaigns(self) -> List[Dict]:
        """Every recorded campaign, oldest first."""
        rows = self._conn.execute(
            "SELECT id, name, commit_hash, spec_json, created_at"
            " FROM campaigns ORDER BY created_at"
        ).fetchall()
        return [
            {
                "id": row[0],
                "name": row[1],
                "commit": row[2],
                "spec": json.loads(row[3]),
                "created_at": row[4],
            }
            for row in rows
        ]

    # -- points -------------------------------------------------------------

    def has_point(self, commit: str, seed: int, spec_hash: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM points WHERE commit_hash = ? AND seed = ? AND spec_hash = ?",
            (commit, seed, spec_hash),
        ).fetchone()
        return row is not None

    def put_point(
        self,
        commit: str,
        seed: int,
        spec_hash: str,
        spec: Dict,
        metrics: Dict,
        campaign_id: str = "",
    ) -> bool:
        """Store one point; returns False when the key already existed.

        First write wins (``INSERT OR IGNORE``): a resumed campaign must
        never overwrite the replicate it is resuming past.
        """
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO points"
            " (commit_hash, seed, spec_hash, campaign_id, spec_json, metrics_json, created_at)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                commit,
                seed,
                spec_hash,
                campaign_id,
                json.dumps(spec, sort_keys=True),
                json.dumps(metrics, sort_keys=True),
                time.time(),
            ),
        )
        self._conn.commit()
        return cursor.rowcount > 0

    def points(
        self,
        spec_hash: Optional[str] = None,
        commit: Optional[str] = None,
        campaign_id: Optional[str] = None,
    ) -> List[PointRow]:
        """Stored points matching the given filters, insertion-ordered."""
        clauses, args = [], []
        if spec_hash is not None:
            clauses.append("spec_hash = ?")
            args.append(spec_hash)
        if commit is not None:
            clauses.append("commit_hash = ?")
            args.append(commit)
        if campaign_id is not None:
            clauses.append("campaign_id = ?")
            args.append(campaign_id)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            "SELECT commit_hash, seed, spec_hash, campaign_id, spec_json,"
            f" metrics_json, created_at FROM points{where}"
            " ORDER BY created_at, seed",
            args,
        ).fetchall()
        return [
            PointRow(
                commit=row[0],
                seed=row[1],
                spec_hash=row[2],
                campaign_id=row[3],
                spec=json.loads(row[4]),
                metrics=json.loads(row[5]),
                created_at=row[6],
            )
            for row in rows
        ]

    def commit_order(self, spec_hashes: Optional[List[str]] = None) -> List[str]:
        """Commits holding points, ordered by when each first appeared.

        This is the x-axis of every trajectory: commit hashes
        do not sort chronologically, their first insertion time does.
        """
        if spec_hashes:
            marks = ",".join("?" for _ in spec_hashes)
            rows = self._conn.execute(
                "SELECT commit_hash, MIN(created_at) AS first_seen FROM points"
                f" WHERE spec_hash IN ({marks})"
                " GROUP BY commit_hash ORDER BY first_seen",
                spec_hashes,
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT commit_hash, MIN(created_at) AS first_seen FROM points"
                " GROUP BY commit_hash ORDER BY first_seen"
            ).fetchall()
        return [row[0] for row in rows]

    def point_count(self, campaign_id: Optional[str] = None, commit: Optional[str] = None) -> int:
        clauses, args = [], []
        if campaign_id is not None:
            clauses.append("campaign_id = ?")
            args.append(campaign_id)
        if commit is not None:
            clauses.append("commit_hash = ?")
            args.append(commit)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        row = self._conn.execute(f"SELECT COUNT(*) FROM points{where}", args).fetchone()
        return int(row[0])
