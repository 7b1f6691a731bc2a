"""Routing committed benchmark tables into machine-readable sinks.

``benchmarks/conftest.py::record_table`` calls :func:`record_rows` for
every figure table it prints: rows are always dual-written as JSONL next
to the ``results/*.txt`` text table, and — when a campaign store is
active via the ``REPRO_CAMPAIGN_DB`` environment variable — also
persisted into the store's ``figure_tables`` table under the current
commit, so running the figure suites inside a campaign populates the
perf database for free.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.config import env_value
from repro.xpmt.spec import current_commit

__all__ = ["record_rows", "write_jsonl"]


def write_jsonl(path: str, rows: List[Dict]) -> None:
    """One JSON object per line; the machine-readable twin of a table."""
    with open(path, "w") as sink:
        for row in rows:
            sink.write(json.dumps(row, sort_keys=True) + "\n")


def record_rows(name: str, rows: List[Dict], jsonl_path: str, seed: int) -> None:
    """Dual-write one figure table: JSONL always, store when active."""
    write_jsonl(jsonl_path, rows)
    db_path = env_value("campaign_db")
    if not db_path:
        return
    from repro.xpmt.store import CampaignStore

    with CampaignStore(db_path) as store:
        store.record_table(name, rows, current_commit(), seed,
                           campaign_id=env_value("campaign_id") or "")
