"""perfbench: the instrument every later perf/simplicity PR is judged by.

One measurement (what the benchmark driver runs)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Exit code 1 if any op failed or any check did not hold.

The whole suite (what a person runs)::

    python3 perfbench/run.py [--seed 1234] [--out FILE]
    python3 perfbench/run.py --selfcheck        # two suites + compare.py

How one measurement is made.  Sections (see ``section.py``) run one at
a time, each in a fresh child process with every ``REPRO_*`` variable
stripped and ``PYTHONHASHSEED=0``.  With ``--trace 0``: first one
*checked* section (every result verified), then *timed* sections until
``--seconds`` have passed.  Host metrics are the median over the timed
sections; simulated metrics and the fingerprint must be identical in
every section, the checked one included, so what was checked is what
was timed.  With ``--trace 1``: one checked section (op spans, NIC queue
depth), one timed, one under ``cProfile``, then the layer drills;
``--seconds`` is not used, the work is fixed.

The suite makes ``SUITE_REPEATS`` measurements of every workload,
round-robin, each exactly one timed section, so a suite median is a
median of single sections; then one ``--trace 1`` measurement each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
from metrics import HOST_END_TO_END, load_benchmark, summarize  # noqa: E402
from pinned import WORKLOADS  # noqa: E402
from section import CORE_PARTS, LAYERS  # noqa: E402

#: No child may outlive the driver's 180 s limit for one run.
CHILD_TIMEOUT_S = 170
OUT_DIR = os.path.join(HERE, "out")
#: Timed sections per workload in one suite (ISSUE 11: seven, because
#: medians of five differed by 2-7 % between sets on the reference box).
SUITE_REPEATS = 7
#: Layers whose self-time is also reported in ms per 1000 ops.
MS_LAYERS = ("sim", "rdma", "memory", "layout", "core", "baselines")
OP_KINDS = ("search", "update", "insert", "scan")


def spawn(script: str, *args: str) -> Dict:
    """Run one perfbench child to completion; its last stdout line is JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{script} {' '.join(args)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_layer_metrics(timed: Dict, profiled: Dict, checked: Dict,
                      drills: Dict[str, float]) -> Dict[str, float]:
    """The 78 per-layer metrics from one timed, profiled and checked section."""
    ops = timed["ops"]
    kop = ops / 1000
    traffic, count = timed["traffic"], timed["counters"]
    out = {
        "sim.events_per_op": timed["events"] / ops,
        "sim.host_events_per_s": timed["events"] / timed["wall_s"],
        "rdma.rtts_per_op": traffic["rtts"] / ops,
        "rdma.verbs_per_op": traffic["verbs"] / ops,
        "rdma.reads_per_op": traffic["reads"] / ops,
        "rdma.writes_per_op": traffic["writes"] / ops,
        "rdma.atomics_per_op": traffic["atomics"] / ops,
        "rdma.rpcs_per_kop": traffic["rpcs"] / kop,
        "rdma.read_bytes_per_op": traffic["bytes_read"] / ops,
        "rdma.write_bytes_per_op": traffic["bytes_written"] / ops,
        "rdma.retries_per_kop": traffic["retries"] / kop,
        "rdma.mn_nic_util": timed["mn_nic_util"],
        "rdma.mn_nic_queue_depth_mean": checked["nic_queue_depth_mean"],
        "memory.alloc_rpcs": count["alloc_rpcs"],
        "core.hotspot_hit_ratio": count["hotspot_hits"] / max(1, count["hotspot_lookups"]),
        "core.speculation_correct_ratio": count["speculations_correct"] / max(
            1, count["speculations_correct"] + count["speculations_wrong"]),
        "core.shard_migrations": count["shard_migrations"],
        "core.readback_insert_misses": checked["readback_insert_misses"],
        "cluster.cache_hit_ratio": timed["cache_hit_ratio"],
        "cluster.cache_evictions_per_kop": count["cache_evictions"] / kop,
        "cluster.cache_invalidations_per_kop": count["cache_invalidations"] / kop,
        "cluster.rdwc_delegated_reads_per_kop": count["rdwc_delegated_reads"] / kop,
        "cluster.rdwc_combined_writes_per_kop": count["rdwc_combined_writes"] / kop,
        "sched.lanes_parked": timed["lanes_parked"],
        # Against this measurement's one timed section, so it carries a
        # single section's noise (README: about 20 %).
        "trace.overhead_ratio": profiled["wall_s"] / timed["wall_s"],
    }
    for kind in OP_KINDS:  # 0 where the workload has no op of that kind
        latency = checked["op_latency"].get(kind, {})
        out[f"sched.op_{kind}_p50_us"] = latency.get("p50_us", 0.0)
        out[f"sched.op_{kind}_p99_us"] = latency.get("p99_us", 0.0)
    # Shares come from the profiled section; ms/kop scales them to the
    # untraced wall clock, so the layers' ms/kop sum to 1000/host_ops_per_s.
    total = sum(layer["self_s"] for layer in profiled["layers"].values())
    untraced_ms_per_kop = timed["wall_s"] * 1000 / kop
    for name in LAYERS:
        layer = profiled["layers"][name]
        share = layer["self_s"] / total
        out[f"{name}.self_share"] = share
        out[f"{name}.calls_per_op"] = layer["calls"] / ops
        if name in MS_LAYERS:
            out[f"{name}.self_ms_per_kop"] = share * untraced_ms_per_kop
    for part in CORE_PARTS:
        out[f"core.{part}.self_share"] = profiled["core_parts"][part] / total
    out.update(drills)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            checked: bool = True, spans_out: Optional[str] = None,
            spawn: Callable[..., Dict] = spawn) -> Dict:
    """One measurement of one workload; see the module docstring."""
    started = time.monotonic()
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])

    def section(mode: str, *extra: str) -> Dict:
        return spawn("section.py", *common, "--mode", mode, *extra)

    records: List[Dict] = []
    if checked or trace:
        records.append(section("checked", *(["--spans-out", spans_out] if spans_out else [])))
    timed: List[Dict] = []
    while True:
        began = time.monotonic()
        timed.append(section("timed"))
        now = time.monotonic()
        # Stop when the next section would end further past the mark
        # than this one ended before it.
        if trace or now + (now - began) / 2 >= started + seconds:
            break
    records += timed
    if trace:
        records.append(section("profiled"))

    problems = [p for record in records for p in record["problems"]]
    complete = [r for r in records if "fingerprint" in r]
    first = complete[0] if complete else None
    for record in complete[1:]:
        for field in ("fingerprint", "sim", "traffic", "counters"):
            if record[field] != first[field]:
                problems.append(f"{record['mode']} section's {field} differs from the "
                                f"{first['mode']} section's: wrappers or host state "
                                f"changed the simulation")
    graded = records[0]  # the checked section when there is one
    failed = max(r["failed"] for r in records)
    result = {
        "attempted": graded["attempted"], "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems,
        "fingerprint": first["fingerprint"] if first else None,
        "readback_insert_misses": graded.get("readback_insert_misses", 0),
    }
    if len(complete) != len(records):
        return result
    result["latency_samples"] = first["latency_samples"]
    if trace:
        drills = spawn("drills.py", *(["--smoke"] if smoke else []))
        result["values"] = per_layer_metrics(timed[0], records[-1], records[0], drills)
    else:
        samples = {
            "setup_s": [r["setup_s"] for r in timed],
            "host_ops_per_s": [r["ops"] / r["wall_s"] for r in timed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        }
        result["samples"] = samples
        result["values"] = {k: statistics.median(v) for k, v in samples.items()}
        result["values"].update(first["sim"])
    return result


def sample_notes(samples: Dict[str, List[float]]) -> Dict[str, str]:
    notes = {}
    for metric, values in samples.items():
        s = summarize(values)
        notes[metric] = f"   (median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
    return notes


def print_metrics(workload: str, values: Dict[str, float], units: Dict[str, str],
                  notes: Dict[str, str]) -> None:
    for metric, value in values.items():
        print(f"{workload:16} {metric:40} {value:<16.6g} {units[metric]}"
              f"{notes.get(metric, '')}")


def print_verdict(workload: str, entry: Dict) -> None:
    """``failed_op_ratio`` is 0 on a healthy run, so it cannot be a bounded
    metric in BENCHMARK.json; it is printed here and carried by the result
    line's ``attempted`` / ``failed``."""
    attempted, failed = entry["attempted"], entry["failed"]
    print(f"{workload:16} {'failed_op_ratio':40} {failed / attempted:<16.6g} ratio   "
          f"(ops_attempted {attempted}, ops_failed {failed})")
    print(f"{workload:16} {'sim_fingerprint':40} {entry['fingerprint']}   "
          f"({entry.get('latency_samples')} post-warm-up latency samples)")
    if entry["readback_insert_misses"]:
        print(f"{workload:16} NOTE {entry['readback_insert_misses']} inserted key(s) read back "
              f"as absent through a fresh client: known chime defect, not counted as "
              f"failed (README.md)")
    for problem in entry["problems"]:
        print(f"{workload:16} PROBLEM {problem}")


def contract_line(result: Dict, units: Dict[str, str]) -> str:
    """The driver's result line: exactly four keys."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["values"].items()},
    })


def run_suite(seed: int, smoke: bool, repeats: int = SUITE_REPEATS,
              spans_dir: Optional[str] = None,
              spawn: Callable[..., Dict] = spawn) -> Dict:
    """One timed section of every workload, *repeats* times round-robin
    so that slow drift of the machine's speed lands on all workloads
    alike; then one traced and checked measurement each."""
    report = {"seed": seed, "repeats": repeats, "smoke": smoke,
              "workloads": {name: {"end_to_end": {}, "runs": []} for name in WORKLOADS}}
    for repeat in range(repeats):
        for name in WORKLOADS:
            print(f"[{repeat + 1}/{repeats}] {name}", file=sys.stderr, flush=True)
            result = measure(name, seed, 0, trace=False, smoke=smoke,
                             checked=False, spawn=spawn)
            report["workloads"][name]["runs"].append(result)
    for name, entry in report["workloads"].items():
        print(f"[trace] {name}", file=sys.stderr, flush=True)
        spans_out = os.path.join(spans_dir, f"spans-{name}.json") if spans_dir else None
        traced = measure(name, seed, 0, trace=True, smoke=smoke,
                         spans_out=spans_out, spawn=spawn)
        runs = entry.pop("runs") + [traced]
        prints = {r["fingerprint"] for r in runs}
        problems = [p for r in runs for p in r["problems"]]
        if len(prints) != 1:
            problems.append(f"fingerprints differ between runs: {sorted(map(str, prints))}")
        timed = [r for r in runs[:-1] if "values" in r]
        for metric in (timed[0]["values"] if timed else ()):
            # Host metrics keep one value per run; simulated ones are
            # identical in all (checked above), so one value says it all.
            values = [r["values"][metric] for r in timed]
            entry["end_to_end"][metric] = (values if metric in HOST_END_TO_END
                                           else sorted(set(values)))
        entry.update(
            per_layer=traced.get("values", {}), fingerprint=traced["fingerprint"],
            attempted=traced["attempted"], failed=max(r["failed"] for r in runs),
            latency_samples=traced.get("latency_samples"), problems=problems,
            readback_insert_misses=traced["readback_insert_misses"])
    return report


def print_report(report: Dict, units: Dict[str, str]) -> None:
    for name, entry in report["workloads"].items():
        medians = {k: statistics.median(v) for k, v in entry["end_to_end"].items()}
        hosts = {k: v for k, v in entry["end_to_end"].items() if k in HOST_END_TO_END}
        print_metrics(name, medians, units, sample_notes(hosts))
        print_metrics(name, entry["per_layer"], units, {})
        print_verdict(name, entry)


def suite_failed(report: Dict) -> bool:
    return any(e["failed"] or e["problems"] for e in report["workloads"].values())


def main(argv=None, spawn: Callable[..., Dict] = spawn) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure this one workload and print the driver's result "
                             "line (default: run the whole suite)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float,
                        help="with --workload: how long the measurement keeps starting "
                             "timed sections (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite: write the report here "
                                      "(default perfbench/out/report.json)")
    parser.add_argument("--trace-out", help="write the checked sections' op spans into "
                                            "this directory, one JSON per workload")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare the two reports")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the tests; the numbers mean nothing")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)

    if args.workload:
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        spans_out = (os.path.join(args.trace_out, f"spans-{args.workload}.json")
                     if args.trace_out else None)
        result = measure(args.workload, args.seed, seconds, bool(args.trace),
                         smoke=args.smoke, spans_out=spans_out, spawn=spawn)
        print_metrics(args.workload, result.get("values", {}), units,
                      sample_notes(result.get("samples", {})))
        print_verdict(args.workload, result)
        if "values" not in result:
            return 1  # a section aborted: there is no result line to print
        print(contract_line(result, units))
        return 0 if result["correct"] else 1

    os.makedirs(OUT_DIR, exist_ok=True)
    reports = []
    for label in ("A", "B") if args.selfcheck else ("report",):
        report = run_suite(args.seed, args.smoke, spans_dir=args.trace_out, spawn=spawn)
        path = args.out if args.out and not args.selfcheck else \
            os.path.join(OUT_DIR, f"{label}.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=1)
        print(f"wrote {path}", file=sys.stderr)
        reports.append(report)
    print_report(reports[0], units)
    failed = any(suite_failed(report) for report in reports)
    if args.selfcheck:
        failed |= compare.print_comparison(reports[0], reports[1], bench) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
