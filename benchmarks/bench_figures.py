"""Every bench table of every figure record (:mod:`repro.bench.figures`).

One test per (figure, table): it runs the table's slice of the figure
once under pytest-benchmark timing, writes ``results/<table>.txt`` and
fails unless every claim the table carries holds on its rows.
"""

import pytest

from repro.bench import current_scale
from repro.bench.figures import FIGURES

TABLES = [(figure, table) for figure in FIGURES.values()
          for table in figure.tables]


@pytest.mark.parametrize("figure,table", TABLES,
                         ids=[table.name for _figure, table in TABLES])
def test_table(benchmark, record_table, figure, table):
    rows = benchmark.pedantic(figure.rows, args=(current_scale(),),
                              kwargs=dict(table.axes), rounds=1,
                              iterations=1, warmup_rounds=0)
    record_table(table.name, rows, table.columns, table.title)
    benchmark.extra_info["rows"] = rows
    failed = figure.failed_claims(table, rows)
    assert not failed, failed
