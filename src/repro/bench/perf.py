"""The pinned simulator performance suite (``python -m repro perf``).

Tracks *simulator* performance — wall-clock cost of running the model,
not the simulated throughput the figures report.  The suite is pinned:
a fixed :data:`PERF_SCALE`, one YCSB-C point per index family, one
chaos campaign, and a fig12-style mini sweep, all with fixed seeds.
Because the simulation is deterministic, every point's **event count**
is an exact fingerprint of simulator behavior; events per wall second
measures how fast the host chews through them.

``--check`` compares a fresh run against the committed baseline
(:data:`BENCH_FILE`): event counts must match exactly (a drift means
the optimization changed behavior, not just speed) and events/sec must
not regress below ``baseline * (1 - tolerance)``.  The default
tolerance is wide (0.5) because shared CI runners are noisy.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.parallel import PointSpec, resolve_jobs, run_sweep
from repro.bench.runner import build_index, load_index, run_workload
from repro.registry import get_family
from repro.bench.scale import Scale
from repro.cluster.cluster import Cluster
from repro.workloads.ycsb import WORKLOADS, WorkloadContext, dataset

#: Name of the baseline file, committed at the repository root.
BENCH_FILE = "BENCH_perf.json"

#: The pinned operating point.  Heavier NIC scaling than the ``quick``
#: preset so each point simulates enough events to time reliably.
PERF_SCALE = Scale(name="perf", num_keys=8000, ops_per_client=200,
                   client_sweep=[8, 24], clients=16, nic_scale=32.0,
                   seed=1234)

#: One representative per index family (B+ tree hybrid, B+ tree,
#: learned, radix).
PERF_INDEXES = ("chime", "sherman", "rolex", "smart")

#: Mini fig12 sweep used for the wall-clock (and parallel speedup)
#: measurement: 2 workloads x 4 indexes x 2 client counts = 16 points.
SWEEP_WORKLOADS = ("C", "A")

#: Pipeline depths pinned for the CHIME YCSB-C depth sweep, and the
#: client count it runs at.  At :data:`PERF_SCALE`'s 16 clients the MN
#: NIC is already ~99% utilized at depth 1 — the paper's saturated
#: regime, where coroutines cannot help (CHIME's CNs are deliberately
#: coroutine-free) — so the sweep pins a 4-client point with NIC
#: headroom, where DEX-style depth hides verb latency: depth=4 must
#: show higher *simulated* ops/sec than depth=1.  Behavior
#: preservation of the scheduler at depth 1 is proven separately by
#: ``points["chime"]`` keeping its pre-scheduler event fingerprint.
DEPTH_SWEEP = (1, 4)
DEPTH_SWEEP_CLIENTS = 4

#: MN counts pinned for the CHIME YCSB-C shard sweep (one key-range
#: shard per MN; see :mod:`repro.cluster.shards`), and the client count
#: it runs at.  At :data:`PERF_SCALE` one MN NIC saturates around 16
#: clients; the sweep pins a 24-client point past that wall, where each
#: additional MN brings its own NIC — aggregate *simulated* Mops must
#: rise with every MN added.
SHARD_SWEEP_MNS = (1, 2, 4)
SHARD_SWEEP_CLIENTS = 24

#: The placement section's pinned points (uniform read-only YCSB-C,
#: theta = 0): ``outback`` must beat ``chime`` on simulated Mops (its
#: one-RTT hash routing vs the tree's cached traversal — the Outback
#: paper's headline point), and a ``flexkv`` run whose CN cache is a
#: tenth of the directory footprint must flip at least one partition
#: to MN-side execution (``switches``).
PLACEMENT_INDEXES = ("chime", "outback")
PLACEMENT_CACHE_DIVISOR = 10


def _perf_point(index_name: str, depth: int = 1,
                clients: Optional[int] = None,
                num_mns: Optional[int] = None,
                theta: float = 0.99,
                cache_bytes: Optional[int] = None) -> Dict:
    """One YCSB-C point with engine-level event accounting.

    Mirrors ``run_point`` but keeps the cluster visible so the event
    counter can be read without polluting ``RunResult.notes`` (which
    would change every experiment's summary columns).  *depth* is the
    pipeline depth (op coroutines per client, see :mod:`repro.sched`);
    *num_mns*, when given, shards the key space one sub-tree per MN;
    *theta* and *cache_bytes* override the zipf skew and CN cache
    budget (the placement section pins uniform / constrained points).
    """
    scale = PERF_SCALE
    config = scale.cluster_config(clients=clients or scale.clients,
                                  num_mns=num_mns,
                                  num_shards=num_mns)
    if cache_bytes is not None:
        config = config.scaled(cache_bytes=cache_bytes)
    cluster = Cluster(config)
    family = get_family(index_name)
    index = build_index(index_name, cluster,
                        chime_overrides=scale.chime_overrides()
                        if family.accepts_overrides else None)
    pairs = dataset(scale.num_keys, key_space=scale.key_space,
                    seed=config.seed)
    spec = WORKLOADS["C"]
    context = WorkloadContext(spec, [k for k, _ in pairs],
                              seed=config.seed, theta=theta)
    context.expected_insert_budget = 64
    load_index(index, pairs, "C", context)
    events_before = cluster.engine.events_processed
    started = time.perf_counter()
    result = run_workload(cluster, index, "C", scale.ops_per_client,
                          context, depth=depth)
    wall = time.perf_counter() - started
    events = cluster.engine.events_processed - events_before
    point = {
        "wall_s": round(wall, 3),
        "events": events,
        "events_per_sec": round(events / wall, 1),
        "ops": result.ops_completed,
        "ops_per_sec": round(result.ops_completed / wall, 1),
        "sim_throughput_mops": round(result.throughput_mops, 4),
    }
    if "placement.switches" in result.notes:
        point["switches"] = int(result.notes["placement.switches"])
        point["mn_partitions"] = int(
            result.notes.get("placement.mn_partitions", 0))
    return point


def _chaos_point() -> Dict:
    """The default chaos campaign, timed."""
    from repro.faults import ChaosConfig, run_chaos
    started = time.perf_counter()
    result = run_chaos(ChaosConfig(seed=PERF_SCALE.seed))
    wall = time.perf_counter() - started
    ok = result.invariants.ok and not result.errors
    return {"wall_s": round(wall, 3), "ok": bool(ok)}


def _sweep_specs() -> List[PointSpec]:
    scale = PERF_SCALE
    return [
        PointSpec(index_name, workload, scale.num_keys,
                  scale.ops_per_client,
                  scale.cluster_config(clients=clients),
                  key_space=scale.key_space,
                  chime_overrides=scale.chime_overrides())
        for workload in SWEEP_WORKLOADS
        for index_name in PERF_INDEXES
        for clients in scale.client_sweep
    ]


def run_suite(jobs: Optional[int] = None) -> Dict:
    """Run the pinned suite; returns the full report dict."""
    workers = resolve_jobs(jobs)
    report: Dict = {
        "suite": "perf-v1",
        "command": "python -m repro perf",
        "cpu_count": os.cpu_count(),
        "jobs": workers,
        "scale": {"num_keys": PERF_SCALE.num_keys,
                  "ops_per_client": PERF_SCALE.ops_per_client,
                  "clients": PERF_SCALE.clients,
                  "nic_scale": PERF_SCALE.nic_scale,
                  "seed": PERF_SCALE.seed},
        "points": {},
    }
    total_events = 0
    total_wall = 0.0
    for index_name in PERF_INDEXES:
        point = _perf_point(index_name)
        report["points"][index_name] = point
        total_events += point["events"]
        total_wall += point["wall_s"]
    report["aggregate_events_per_sec"] = round(total_events / total_wall, 1)
    report["chaos"] = _chaos_point()

    report["depth_sweep"] = {"clients": DEPTH_SWEEP_CLIENTS}
    for depth in DEPTH_SWEEP:
        point = _perf_point("chime", depth=depth,
                            clients=DEPTH_SWEEP_CLIENTS)
        point["depth"] = depth
        report["depth_sweep"][f"depth{depth}"] = point

    report["shard_sweep"] = {"clients": SHARD_SWEEP_CLIENTS}
    for num_mns in SHARD_SWEEP_MNS:
        point = _perf_point("chime", clients=SHARD_SWEEP_CLIENTS,
                            num_mns=num_mns)
        point["num_mns"] = num_mns
        report["shard_sweep"][f"mns{num_mns}"] = point

    from repro.baselines.flexkv import FlexKVIndex
    placement: Dict = {"theta": 0.0}
    for index_name in PLACEMENT_INDEXES:
        placement[index_name] = _perf_point(index_name, theta=0.0)
    footprint = FlexKVIndex.directory_bytes(PERF_SCALE.num_keys,
                                            PERF_SCALE.num_mns)
    placement["flexkv_constrained"] = _perf_point(
        "flexkv", theta=0.0,
        cache_bytes=max(1024, footprint // PLACEMENT_CACHE_DIVISOR))
    report["placement"] = placement

    specs = _sweep_specs()
    started = time.perf_counter()
    serial_results = run_sweep(specs, jobs=1)
    serial_wall = time.perf_counter() - started
    sweep: Dict = {"points": len(specs),
                   "serial_wall_s": round(serial_wall, 2)}
    if workers > 1:
        started = time.perf_counter()
        parallel_results = run_sweep(specs, jobs=workers)
        parallel_wall = time.perf_counter() - started
        identical = all(
            a.summary() == b.summary()
            for a, b in zip(serial_results, parallel_results))
        sweep.update(jobs=workers,
                     parallel_wall_s=round(parallel_wall, 2),
                     speedup=round(serial_wall / parallel_wall, 2),
                     identical_results=identical)
    report["sweep_fig12_mini"] = sweep
    return report


def check_report(report: Dict, baseline: Dict,
                 tolerance: float) -> Tuple[bool, List[str]]:
    """Compare a fresh report against the committed baseline."""
    problems: List[str] = []
    base_points = baseline.get("points", {})
    for name, point in report["points"].items():
        base = base_points.get(name)
        if base is None:
            problems.append(f"{name}: no baseline entry")
            continue
        if point["events"] != base["events"]:
            problems.append(
                f"{name}: event count drifted "
                f"({base['events']} -> {point['events']}) — simulator "
                f"behavior changed, not just its speed")
        floor = base["events_per_sec"] * (1.0 - tolerance)
        if point["events_per_sec"] < floor:
            problems.append(
                f"{name}: events/sec regressed beyond tolerance "
                f"({base['events_per_sec']:.0f} -> "
                f"{point['events_per_sec']:.0f}, floor {floor:.0f})")
    sweep = report.get("depth_sweep", {})
    base_sweep = baseline.get("depth_sweep", {})
    for key, point in sweep.items():
        if not isinstance(point, dict):
            continue
        base = base_sweep.get(key)
        if isinstance(base, dict) and point["events"] != base["events"]:
            problems.append(
                f"depth_sweep {key}: event count drifted "
                f"({base['events']} -> {point['events']})")
    depth1 = sweep.get("depth1")
    depth4 = sweep.get("depth4")
    if depth1 is not None and depth4 is not None:
        if depth4["sim_throughput_mops"] <= depth1["sim_throughput_mops"]:
            problems.append(
                "depth_sweep: depth=4 did not raise simulated ops/sec "
                f"({depth1['sim_throughput_mops']} -> "
                f"{depth4['sim_throughput_mops']})")
    shards = report.get("shard_sweep", {})
    base_shards = baseline.get("shard_sweep", {})
    for key, point in shards.items():
        if not isinstance(point, dict):
            continue
        base = base_shards.get(key)
        if isinstance(base, dict) and point["events"] != base["events"]:
            problems.append(
                f"shard_sweep {key}: event count drifted "
                f"({base['events']} -> {point['events']})")
    shard_mops = [
        shards[f"mns{n}"]["sim_throughput_mops"]
        for n in SHARD_SWEEP_MNS
        if isinstance(shards.get(f"mns{n}"), dict)
    ]
    if len(shard_mops) == len(SHARD_SWEEP_MNS):
        for prev, nxt, mns in zip(shard_mops, shard_mops[1:],
                                  SHARD_SWEEP_MNS[1:]):
            if nxt <= prev:
                problems.append(
                    f"shard_sweep: {mns} MNs did not raise aggregate "
                    f"simulated Mops ({prev} -> {nxt})")
    placement = report.get("placement", {})
    base_placement = baseline.get("placement", {})
    for key, point in placement.items():
        if not isinstance(point, dict):
            continue
        base = base_placement.get(key)
        if isinstance(base, dict) and point["events"] != base["events"]:
            problems.append(
                f"placement {key}: event count drifted "
                f"({base['events']} -> {point['events']})")
    chime_uniform = placement.get("chime")
    outback_uniform = placement.get("outback")
    if chime_uniform is not None and outback_uniform is not None:
        if (outback_uniform["sim_throughput_mops"]
                <= chime_uniform["sim_throughput_mops"]):
            problems.append(
                "placement: outback's one-RTT lookups did not beat chime "
                "on the uniform read-only point "
                f"({chime_uniform['sim_throughput_mops']} vs "
                f"{outback_uniform['sim_throughput_mops']})")
    constrained = placement.get("flexkv_constrained")
    if constrained is not None and constrained.get("switches", 0) < 1:
        problems.append(
            "placement: the cache-constrained flexkv point flipped no "
            "partition to MN-side execution")
    if not report["chaos"]["ok"]:
        problems.append("chaos campaign failed its invariants")
    if report["sweep_fig12_mini"].get("identical_results") is False:
        problems.append("parallel sweep results diverged from serial")
    return not problems, problems


def load_baseline(path: str) -> Optional[Dict]:
    try:
        with open(path) as source:
            return json.load(source)
    except (OSError, ValueError):
        return None


def write_report(report: Dict, path: str) -> None:
    with open(path, "w") as sink:
        json.dump(report, sink, indent=1, sort_keys=True)
        sink.write("\n")
