"""Shared fixtures for the figure-reproduction benchmarks.

Each benchmark runs one table of a figure record exactly once
(``pedantic`` with one round — the figure itself is a full simulated
cluster run), prints the table, and writes it under
``benchmarks/results/`` so EXPERIMENTS.md can reference committed
numbers.

A table is written once, as ``results/<name>.txt`` rendered by
:func:`repro.bench.report.format_table`.  Multi-seed replicates of a
table live in the campaign store's ``points`` table instead
(``python -m repro campaign run <table> --seeds 42-46``).

Scale selection: set ``REPRO_SCALE`` to ``quick`` / ``default`` / ``full``
(benchmarks default to ``quick`` so the whole suite completes in
minutes; EXPERIMENTS.md notes the preset used).  ``REPRO_SEED``
overrides the preset's RNG seed, so the suite can rerun one seed of a
campaign point-by-point.
"""

import os
import pathlib

import pytest

os.environ.setdefault("REPRO_SCALE", "quick")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Returns a function that prints + persists one experiment table."""
    from repro.bench.report import format_table

    def record(name, rows, columns=None, title=""):
        RESULTS_DIR.mkdir(exist_ok=True)
        text = format_table(rows, columns, title or name)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        return rows

    return record

