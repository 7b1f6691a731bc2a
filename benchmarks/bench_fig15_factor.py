"""Figure 15: factor analysis — CHIME's techniques applied one by one.

Starting from Sherman and cumulatively enabling: hopscotch leaves, the
vacancy-bitmap piggyback, leaf-metadata replication, sibling-based
validation, and speculative reads (= full CHIME).  Read-side techniques
move YCSB C; the vacancy piggyback moves LOAD.
"""

from conftest import run_once

from repro.bench import current_scale
from repro.bench.experiments import fig15_factor_analysis, fig15b_learned_branch
from repro.bench.report import group_rows


def test_fig15_factor_analysis(benchmark, record_table):
    rows = run_once(benchmark, fig15_factor_analysis, current_scale(),
                    workloads=("C", "LOAD"))
    record_table("fig15_factor", rows,
                 ["workload", "step", "throughput_mops", "p50_us",
                  "p99_us"],
                 "Figure 15: factor analysis (Sherman -> CHIME)")
    benchmark.extra_info["rows"] = rows
    by_workload = group_rows(rows, "workload")

    def thr(workload, step):
        return next(r["throughput_mops"] for r in by_workload[workload]
                    if r["step"] == step)

    # Hopscotch leaves carry the read workloads (paper: 2.3x on C).
    assert thr("C", "+hopscotch-leaf") > 1.5 * thr("C", "sherman")
    # Metadata replication removes the dedicated metadata READ.
    assert thr("C", "+metadata-replication") > \
        1.2 * thr("C", "+vacancy-piggyback")
    # The vacancy piggyback is the LOAD-side win (paper: 1.6x; smaller
    # at reduced scale because splits dominate short LOAD runs).
    assert thr("LOAD", "+vacancy-piggyback") > \
        1.1 * thr("LOAD", "+hopscotch-leaf")
    # Full CHIME beats plain Sherman everywhere.
    assert thr("C", "+speculative-read(=chime)") > 2 * thr("C", "sherman")


def test_fig15b_learned_branch(benchmark, record_table):
    rows = run_once(benchmark, fig15b_learned_branch, current_scale(),
                    workloads=("C", "A", "E"))
    record_table("fig15b_learned", rows,
                 ["workload", "index", "throughput_mops", "p50_us",
                  "p99_us", "read_bytes_per_op"],
                 "Figure 15b / §5.3: ROLEX -> CHIME-Learned -> CHIME")
    benchmark.extra_info["rows"] = rows
    by_key = {(r["workload"], r["index"]): r["throughput_mops"]
              for r in rows}
    for workload in ("C",):
        # Hopscotch leaves lift ROLEX substantially...
        assert by_key[(workload, "chime-learned")] > \
            1.5 * by_key[(workload, "rolex")]
        # ...but the B+-tree hybrid still wins (one neighborhood, not
        # one per candidate leaf) — the paper's §5.3 conclusion.
        assert by_key[(workload, "chime")] > \
            by_key[(workload, "chime-learned")]
    # Scans agree (CHIME reads fewer bytes per scan); CHIME-Learned's
    # scans fall below ROLEX's, so E's lift over ROLEX is not asserted.
    assert by_key[("E", "chime")] > by_key[("E", "chime-learned")]
