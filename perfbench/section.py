"""One section: set up one pinned workload, run it once, report what happened.

A section is always a fresh process (``run.py`` starts them one at a
time with every ``REPRO_*`` variable stripped and ``PYTHONHASHSEED=0``),
so no memoized dataset, op stream or warmed allocator leaks from one
measurement into the next.  Three modes:

* ``timed``    — tracing off, obs bus idle; the only mode whose host
  numbers are reported as end-to-end metrics.
* ``profiled`` — ``cProfile`` around ``run_workload``; self-time and
  call counts bucketed by ``repro.<package>``.
* ``checked``  — the index wrapped in :class:`checker.CheckedIndex`
  (spans + result checks), the obs bus subscribed for NIC queue depth,
  then tree invariants and a read-back.

Every mode reports the same simulated numbers and the same
``fingerprint``; ``run.py`` refuses a run where they differ.

The record is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import sys
import time
from dataclasses import astuple
from typing import Callable, Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.bench.runner import run_workload  # noqa: E402
from repro.obs import BUS  # noqa: E402
from repro.workloads.ycsb import dataset  # noqa: E402

import checker  # noqa: E402
from pinned import WARMUP_FRACTION, WORKLOADS, Pinned  # noqa: E402

MODES = ("timed", "profiled", "checked")

#: Layers a profile is split into: the packages (and the two top-level
#: modules) under ``src/repro`` that can run inside ``run_workload``.
#: ``python`` takes everything else: the stdlib, builtins, this file.
LAYERS = ("sim", "rdma", "memory", "layout", "hashing", "core", "baselines",
          "cluster", "sched", "workloads", "bench", "obs", "retry", "python")
CORE_PARTS = ("nodes", "chime", "sync", "leaf_ops", "sharded")
_REPRO = os.path.join(ROOT, "src", "repro") + os.sep


def layer_of(filename: str) -> "tuple[str, Optional[str]]":
    """(layer, core sub-module or None) owning a profiled function."""
    if not filename.startswith(_REPRO):
        return "python", None
    parts = filename[len(_REPRO):].split(os.sep)
    layer = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    if layer not in LAYERS:
        return "python", None
    part = None
    if layer == "core" and len(parts) > 1 and parts[1][:-3] in CORE_PARTS:
        part = parts[1][:-3]
    return layer, part


def bucket_profile(profile: cProfile.Profile) -> Dict:
    """Self-time (s) and call counts per layer, plus core's sub-modules."""
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    core_parts = {name: 0.0 for name in CORE_PARTS}
    stats = pstats.Stats(profile).stats
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer, part = layer_of(filename)
        layers[layer]["self_s"] += tottime
        layers[layer]["calls"] += ncalls
        if part is not None:
            core_parts[part] += tottime
    return {"layers": layers, "core_parts": core_parts}


def fingerprint(events: int, result) -> str:
    """Hash of everything simulated: a host-only change must keep it."""
    parts = (events, result.ops_completed, result.elapsed_seconds.hex(),
             astuple(result.traffic))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def hotspot_stats(index) -> "tuple[int, int, int, int]":
    """(lookups, hits, correct, wrong) over the index or its shards."""
    shards = getattr(index, "shards", None)
    subs = [sub for _shard, sub in shards()] if shards else [index]
    totals = [0, 0, 0, 0]
    for sub in subs:
        if hasattr(sub, "hotspot_stats"):
            totals = [a + b for a, b in zip(totals, sub.hotspot_stats())]
    return tuple(totals)


def counters(cluster, index) -> Dict[str, float]:
    """Cumulative per-layer counters read from public attributes."""
    lookups, hits, correct, wrong = hotspot_stats(index)
    return {
        "cache_evictions": sum(cn.cache.evictions for cn in cluster.cns),
        "cache_invalidations": sum(cn.cache.invalidations for cn in cluster.cns),
        "rdwc_delegated_reads": sum(cn.combiner.delegated_reads for cn in cluster.cns),
        "rdwc_combined_writes": sum(cn.combiner.combined_writes for cn in cluster.cns),
        "alloc_rpcs": sum(mn.cpu.served for mn in cluster.mns.values()),
        "hotspot_lookups": lookups, "hotspot_hits": hits,
        "speculations_correct": correct, "speculations_wrong": wrong,
        "shard_migrations": getattr(index, "migrations", 0),
    }


def nic_busy(cluster) -> Dict[int, float]:
    """Busy seconds per lane of each MN NIC's busier direction so far."""
    now = cluster.engine.now
    return {mn_id: max(mn.nic.rx.busy_time_until(now),
                       mn.nic.tx.busy_time_until(now)) / mn.nic.spec.lanes
            for mn_id, mn in cluster.mns.items()}


def run_section(spec: Pinned, seed: int, mode: str, smoke: bool = False,
                wrap_index: Optional[Callable] = None,
                spans_out: Optional[str] = None) -> Dict:
    """Run one section in this process and return its record.

    *wrap_index* (tests only) wraps the real index before the checker
    sees it — that is how the planted-bug tests inject a lying client.
    """
    num_keys, ops_per_client = spec.sized(smoke)
    attempted = spec.clients * ops_per_client

    setup_started = time.perf_counter()
    cluster, index, context = spec.prepare(seed, smoke)
    setup_s = time.perf_counter() - setup_started

    model = None
    queue_depths = []
    subscription = None
    if wrap_index is not None:
        index = wrap_index(index)
    driven = index  # what run_workload drives: the index, or its checking proxy
    if mode == "checked":
        model = checker.Model(dataset(num_keys, seed=seed),
                              warmup=int(ops_per_client * WARMUP_FRACTION),
                              per_span_traffic=spec.depth == 1)
        driven = checker.CheckedIndex(index, model)
        subscription = BUS.subscribe(
            lambda event: event.data["nic"].startswith("mn")
            and queue_depths.append(event.data["depth"]), kinds=["nic.queue"])

    profile = cProfile.Profile() if mode == "profiled" else None
    before = counters(cluster, index)
    busy_before = nic_busy(cluster)
    events_before = cluster.engine.events_processed
    gc.collect()
    error = None
    wall_started = time.perf_counter()
    try:
        if profile is not None:
            profile.enable()
        result = run_workload(cluster, driven, spec.ycsb, ops_per_client, context,
                              warmup_fraction=WARMUP_FRACTION, depth=spec.depth)
    except Exception as exc:  # a failed op aborts the run; report, don't hide
        error = f"{type(exc).__name__}: {exc}"
        result = None
    finally:
        if profile is not None:
            profile.disable()
        wall_s = time.perf_counter() - wall_started
        if subscription is not None:
            subscription.unsubscribe()

    record: Dict = {
        "workload": spec.name, "seed": seed, "mode": mode,
        "setup_s": setup_s, "wall_s": wall_s,
        "attempted": attempted, "problems": [],
    }
    if result is None:
        record.update(failed=attempted, problems=[f"run aborted: {error}"])
        return record

    ops = result.ops_completed
    events = cluster.engine.events_processed - events_before
    after = counters(cluster, index)
    busy_after = nic_busy(cluster)
    delta = {name: after[name] - before[name] for name in after}
    traffic = result.traffic
    record.update(
        ops=ops, events=events, fingerprint=fingerprint(events, result),
        latency_samples=len(result.latencies_us),
        lanes_parked=int(result.notes.get("sched.lanes_parked", 0)),
        # Never-completed ops (a parked lane); the checker adds wrong ones.
        failed=attempted - ops,
        sim={
            "sim_mops": result.throughput_mops,
            "sim_p50_us": result.p50_us,
            "sim_p99_us": result.p99_us,
            "sim_p999_us": result.p999_us,
            "sim_rtts_per_op": result.rtts_per_op,
            "sim_wire_bytes_per_op": (traffic.bytes_read + traffic.bytes_written) / ops,
            "sim_cn_cache_kb": result.cache_bytes_used / 1024,
        },
        traffic={name: getattr(traffic, name) for name in traffic.__dataclass_fields__},
        cache_hit_ratio=result.cache_hit_ratio,
        # ``Nic.utilization`` over the run's window only: set-up traffic
        # is subtracted; per lane and clamped at 1.0 as it is there.
        mn_nic_util=min(1.0, max((busy_after[mn] - busy_before[mn]) / result.elapsed_seconds
                                 for mn in busy_after)),
        counters=delta,
    )
    if ops != attempted:
        record["problems"].append(f"{attempted - ops} op(s) never completed")

    if mode == "timed":
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if profile is not None:
        record.update(bucket_profile(profile))
    if model is not None:
        finish_checked(record, cluster, index, context, model, result,
                       queue_depths, spans_out)
    return record


def finish_checked(record, cluster, index, context, model, result,
                   queue_depths, spans_out) -> None:
    """Fold the checker's verdicts, invariants and read-back into *record*."""
    from repro.faults.invariants import check_index_invariants

    problems = record["problems"]
    spans = model.spans
    measured = sorted((s["end"] - s["start"]) * 1e6 for s in spans if not s["warmup"])
    if measured != sorted(result.latencies_us):
        problems.append("op spans disagree with the runner's latency samples")
    record["op_latency"] = checker.latency_percentiles(spans)
    record["nic_queue_depth_mean"] = (sum(queue_depths) / len(queue_depths)
                                      if queue_depths else 0.0)
    if index.registry_family.supports_chaos:
        expected = set(model.loaded) | set(context.committed_inserts)
        for violation in check_index_invariants(index, expected_keys=expected).violations:
            model.fail(f"invariant: {violation}")
    read, record["readback_insert_misses"] = checker.read_back(
        cluster, index, model, record["seed"])
    record["attempted"] += read
    record["failed"] = min(record["failed"] + model.failed_ops, record["attempted"])
    problems.extend(model.messages)
    if spans_out:
        with open(spans_out, "w") as handle:
            json.dump({"workload": record["workload"], "seed": record["seed"],
                       "fingerprint": record["fingerprint"], "spans": spans}, handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    record = run_section(WORKLOADS[args.workload], args.seed, args.mode,
                         smoke=args.smoke, spans_out=args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
