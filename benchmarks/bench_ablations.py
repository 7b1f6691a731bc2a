"""Ablations beyond the paper's figures: the design choices DESIGN.md
calls out, each isolated.

* CXL atomics (§4.5) — losing the masked-CAS piggyback costs insert
  workloads a dedicated vacancy READ;
* RDWC — why skew helps instead of hurting (Fig. 18a's mechanism);
* the CN-local lock table — remote CAS spinning vs local serialization;
* torn writes — what chunked WRITE landing changes once an entry
  straddles a cache line (64-byte values);
* update write amplification — §4.5's 1.02x version-byte overhead claim.
"""

from conftest import run_once

from repro.bench import current_scale
from repro.bench.experiments import (
    ablation_cxl_atomics,
    ablation_local_lock_table,
    ablation_rdwc,
    ablation_torn_writes,
    ablation_write_amplification,
)


def test_ablation_cxl_atomics(benchmark, record_table):
    rows = run_once(benchmark, ablation_cxl_atomics, current_scale())
    record_table("ablation_cxl", rows,
                 ["workload", "mode", "throughput_mops", "p50_us",
                  "rtts_per_op"],
                 "Ablation: RDMA masked-CAS vs CXL atomics (§4.5)")
    benchmark.extra_info["rows"] = rows
    by_key = {(r["workload"], r["mode"]): r for r in rows}
    # Searches don't take locks: identical.
    assert by_key[("C", "cxl-atomics")]["throughput_mops"] == \
        by_key[("C", "rdma-masked-cas")]["throughput_mops"]
    # Inserts pay the dedicated vacancy READ: more RTTs, less throughput.
    assert by_key[("LOAD", "cxl-atomics")]["rtts_per_op"] > \
        by_key[("LOAD", "rdma-masked-cas")]["rtts_per_op"]
    assert by_key[("LOAD", "cxl-atomics")]["throughput_mops"] < \
        by_key[("LOAD", "rdma-masked-cas")]["throughput_mops"]


def test_ablation_rdwc(benchmark, record_table):
    rows = run_once(benchmark, ablation_rdwc, current_scale())
    record_table("ablation_rdwc", rows,
                 ["rdwc", "theta", "throughput_mops", "p99_us"],
                 "Ablation: read delegation / write combining vs skew")
    benchmark.extra_info["rows"] = rows
    by_key = {(r["rdwc"], r["theta"]): r["throughput_mops"] for r in rows}
    # At high skew RDWC must help; at low skew it should not hurt much.
    assert by_key[(True, 0.99)] > by_key[(False, 0.99)]
    assert by_key[(True, 0.5)] > 0.7 * by_key[(False, 0.5)]


def test_ablation_local_lock_table(benchmark, record_table):
    rows = run_once(benchmark, ablation_local_lock_table, current_scale())
    record_table("ablation_local_locks", rows,
                 ["local_lock_table", "throughput_mops", "p99_us",
                  "retries"],
                 "Ablation: CN-local lock table under write contention")
    benchmark.extra_info["rows"] = rows
    by_flag = {r["local_lock_table"]: r for r in rows}
    # The local table absorbs same-CN contention: fewer remote CAS fails.
    assert by_flag[True]["retries"] <= by_flag[False]["retries"]


def test_ablation_torn_writes(benchmark, record_table):
    rows = run_once(benchmark, ablation_torn_writes, current_scale())
    record_table("ablation_torn_writes", rows,
                 ["torn_writes", "throughput_mops", "p99_us", "retries"],
                 "Ablation: torn-write modelling (64-byte values)")
    benchmark.extra_info["rows"] = rows
    by_flag = {r["torn_writes"]: r for r in rows}
    # The flag must reach the run: at the default 8-byte value no WRITE
    # spans two cache lines and both rows used to be byte-identical.
    assert by_flag[True] != {**by_flag[False], "torn_writes": True}
    # The workloads complete correctly either way, at a bounded cost.
    assert by_flag[True]["throughput_mops"] > \
        0.5 * by_flag[False]["throughput_mops"]


def test_ablation_write_amplification(benchmark, record_table):
    rows = run_once(benchmark, ablation_write_amplification,
                    current_scale())
    record_table("ablation_write_amp", rows, None,
                 "Ablation: update write amplification (§4.5: ~1.02x)")
    benchmark.extra_info["rows"] = rows
    for row in rows:
        assert 1.0 <= row["amplification_vs_entry"] <= 1.05, row
