"""One experiment function per paper table/figure.

Each function returns a list of row dicts (the figure's data series) that
``benchmarks/`` targets print via :mod:`repro.bench.report` and record in
EXPERIMENTS.md.  Absolute numbers are simulated; the paper-vs-measured
comparison is about *shape*: who wins, by what factor, where crossovers
fall.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.bench.parallel import run_sweep, sweep_rows
from repro.bench.runner import build_index, run_workload
from repro.registry import get_family
from repro.bench.scale import Scale, current_scale
from repro.cluster.cluster import Cluster
from repro.config import ChimeConfig
from repro.core import ChimeIndex
from repro.hashing import HopscotchTable, figure_3d_schemes, measure_max_load_factor
from repro.memory import MemoryNode, make_addr
from repro.rdma.verbs import RdmaQp
from repro.sim.engine import Engine
from repro.workloads.ycsb import dataset

#: The four headline indexes of most figures.
MAIN_INDEXES = ("chime", "sherman", "rolex", "smart", "smart-opt")

#: The variable-length-KV variants of Figure 13.
INDIRECT_INDEXES = ("chime-indirect", "marlin", "rolex-indirect", "smart-rcu")


# --------------------------------------------------------------------------
# Figure 1 / 3a — the trade-off between cache consumption and amplification
# --------------------------------------------------------------------------

def fig3a_tradeoff(scale: Optional[Scale] = None) -> List[Dict]:
    """Cache consumption vs theoretical read amplification factor.

    Sherman/ROLEX points per span size; SMART one point (amplification 1,
    per-item cache); CHIME one point per neighborhood (amplification H).
    Cache bytes come from actually built indexes, normalised per key.
    """
    scale = scale or current_scale()
    rows: List[Dict] = []
    pairs = dataset(scale.num_keys, key_space=scale.key_space,
                    seed=scale.seed)

    def built_cache_bytes(name: str, **shape) -> int:
        cluster = Cluster(scale.cluster_config(clients=2,
                                               cache_bytes=None))
        index = build_index(name, cluster, **shape)
        if get_family(name).model_routed:
            index.bulk_load(pairs, future_keys=())
        else:
            index.bulk_load(pairs)
        return index.cache_bytes_needed()

    for span in (16, 64, 256):
        rows.append({
            "index": "sherman", "span": span,
            "amplification_factor": span,
            "cache_bytes_per_key":
                built_cache_bytes("sherman", span=span) / scale.num_keys,
        })
        rows.append({
            "index": "rolex", "span": span,
            "amplification_factor": 2 * span,
            "cache_bytes_per_key":
                built_cache_bytes("rolex", span=span) / scale.num_keys,
        })
    rows.append({
        "index": "smart", "span": 0,
        "amplification_factor": 1,
        "cache_bytes_per_key":
            built_cache_bytes("smart") / scale.num_keys,
    })
    for neighborhood in (4, 8, 16):
        rows.append({
            "index": "chime", "span": 64,
            "amplification_factor": neighborhood,
            "cache_bytes_per_key":
                built_cache_bytes("chime", span=64,
                                  neighborhood=neighborhood)
                / scale.num_keys,
        })
    return rows


# --------------------------------------------------------------------------
# Figures 3b / 3c — limited bandwidth vs limited cache
# --------------------------------------------------------------------------

def fig3b_limited_bandwidth(scale: Optional[Scale] = None,
                            indexes: Sequence[str] = ("chime", "sherman",
                                                      "rolex", "smart"),
                            seed: Optional[int] = None) -> List[Dict]:
    """YCSB C, 1 MN (bandwidth-limited), ample cache: client sweep."""
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, "C",
                    scale.cluster_config(clients=clients, num_mns=1,
                                         cache_bytes=10 * scale.cache_bytes,
                                         seed=seed))
        for index_name in indexes
        for clients in scale.client_sweep
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def fig3c_limited_cache(scale: Optional[Scale] = None,
                        indexes: Sequence[str] = ("chime", "sherman",
                                                  "rolex", "smart"),
                        seed: Optional[int] = None) -> List[Dict]:
    """YCSB C, several MNs (ample bandwidth), the scaled 100 MB cache."""
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, "C",
                    scale.cluster_config(clients=clients, num_mns=8,
                                         cache_bytes=scale.cache_bytes,
                                         seed=seed),
                    unlimited_cache_for=())
        for index_name in indexes
        for clients in scale.client_sweep
    ]
    return sweep_rows(specs, jobs=scale.jobs)


# --------------------------------------------------------------------------
# Figure 3d — hashing schemes: load factor vs amplification
# --------------------------------------------------------------------------

def fig3d_hashing() -> List[Dict]:
    return [{
        "scheme": r.scheme,
        "amplification_factor": r.amplification_factor,
        "max_load_factor": round(r.max_load_factor, 4),
    } for r in figure_3d_schemes(capacity=128)]


# --------------------------------------------------------------------------
# Figure 4 — metadata-access and neighborhood-size microbenchmarks
# --------------------------------------------------------------------------

def _raw_read_throughput(reads_per_op: Sequence[int], clients: int,
                         scale: Scale, ops: int = 300) -> float:
    """Mops of a closed loop issuing fixed-size READ groups at one MN."""
    engine = Engine()
    mn = MemoryNode(engine, 0, 1 << 22, nic_spec=scale.nic_spec())
    mns = {0: mn}
    completed = [0]

    def client(offset: int):
        qp = RdmaQp(engine, mns)
        for _ in range(ops):
            if len(reads_per_op) == 1:
                yield from qp.read(make_addr(0, offset), reads_per_op[0])
            else:
                requests = [(make_addr(0, offset + 4096 * i), size)
                            for i, size in enumerate(reads_per_op)]
                yield from qp.read_batch(requests)
            completed[0] += 1

    for i in range(clients):
        engine.process(client(64 + i * 128))
    engine.run()
    return completed[0] / engine.now / 1e6


def fig4_micro(scale: Optional[Scale] = None) -> List[Dict]:
    scale = scale or current_scale()
    clients = scale.clients
    entry = 19          # 8 B key + 8 B value + bitmap + version
    hop_range = 8 * entry
    node = 64 * entry
    rows: List[Dict] = []
    # (a) vacancy bitmap: ideal (hop range) vs +bitmap access vs full node.
    rows.append({"panel": "4a", "case": "ideal-hop-range",
                 "mops": _raw_read_throughput([hop_range], clients, scale)})
    rows.append({"panel": "4a", "case": "vacancy-extra-access",
                 "mops": _raw_read_throughput([8, hop_range], clients,
                                              scale)})
    rows.append({"panel": "4a", "case": "entire-leaf",
                 "mops": _raw_read_throughput([node], clients, scale)})
    # (b) leaf metadata: neighborhood alone vs +dedicated metadata READ.
    neighborhood = 8 * entry
    rows.append({"panel": "4b", "case": "replicated-metadata",
                 "mops": _raw_read_throughput([neighborhood + 10], clients,
                                              scale)})
    rows.append({"panel": "4b", "case": "dedicated-metadata-access",
                 "mops": _raw_read_throughput([10, neighborhood], clients,
                                              scale)})
    # (c) neighborhood size: reading H entries, H in 1..16.
    for h in (1, 2, 4, 8, 16):
        rows.append({"panel": "4c", "case": f"H={h}",
                     "mops": _raw_read_throughput([h * entry], clients,
                                                  scale)})
    return rows


# --------------------------------------------------------------------------
# Table 1 — round trips per operation
# --------------------------------------------------------------------------

def table1_rtts(scale: Optional[Scale] = None) -> List[Dict]:
    """Measured RTTs per CHIME operation, best case (everything cached)
    and worst case (no CN cache), against the paper's formulas."""
    scale = scale or current_scale()
    rows: List[Dict] = []
    for case, cache_bytes in (("best", None), ("worst", 0)):
        cluster = Cluster(scale.cluster_config(clients=1,
                                               cache_bytes=cache_bytes))
        index = ChimeIndex(cluster, ChimeConfig(
            hotspot_bytes=scale.hotspot_bytes))
        pairs = dataset(scale.num_keys, key_space=scale.key_space,
                        seed=scale.seed)
        index.bulk_load(pairs)
        client = index.client(cluster.cns[0].clients[0])
        height = index.root_level
        measured: Dict[str, float] = {}

        def measure(op_name, gen_factory, repeat=8):
            def driver():
                yield from gen_factory(0)  # warm the caches / buffers
                before = client.qp.stats.rtts
                for i in range(1, repeat + 1):
                    yield from gen_factory(i)
                measured[op_name] = (client.qp.stats.rtts - before) / repeat
            cluster.engine.process(driver())
            cluster.run()

        probe_keys = [pairs[97 * (i + 1)][0] for i in range(16)]
        measure("search", lambda i: client.search(probe_keys[i]))
        measure("update", lambda i: client.update(probe_keys[i], 5))
        base = scale.key_space + 1000
        measure("insert", lambda i: client.insert(base + i, 1))
        measure("scan", lambda i: client.scan(probe_keys[i], 20))
        for op_name, value in measured.items():
            paper_best = {"search": "1-2", "insert": "3",
                          "update": "3-4", "scan": "1"}[op_name]
            paper_worst = {"search": f"{height}+1-2",
                           "insert": f"{height}+3",
                           "update": f"{height}+3-4",
                           "scan": f"{height}+1"}[op_name]
            rows.append({"case": case, "op": op_name, "tree_height": height,
                         "measured_rtts": round(value, 2),
                         "paper_formula": paper_best if case == "best"
                         else paper_worst})
    return rows


# --------------------------------------------------------------------------
# Figure 12 — YCSB throughput-latency curves
# --------------------------------------------------------------------------

def fig12_ycsb(scale: Optional[Scale] = None,
               workloads: Sequence[str] = ("A", "B", "C", "D", "E", "LOAD"),
               indexes: Sequence[str] = MAIN_INDEXES,
               client_sweep: Optional[Sequence[int]] = None,
               seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    sweep = client_sweep or scale.client_sweep
    specs = [
        scale.point(index_name, workload,
                    scale.cluster_config(clients=clients, seed=seed))
        for workload in workloads
        for index_name in indexes
        # the paper skips ROLEX for LOAD (§5.1 fn. 3)
        if not (workload == "LOAD" and get_family(index_name).family == "rolex")
        for clients in sweep
    ]
    return sweep_rows(specs, jobs=scale.jobs)


# --------------------------------------------------------------------------
# Figure 12 companion — hash-routed / offloaded point-workload families
# --------------------------------------------------------------------------

#: fig12 extended with the placement-aware KV families.  Scan-free
#: point mixes only: outback and flexkv index discrete KV pairs and
#: support no range scans (``supports_scan=False``).
POINT_INDEXES = ("chime", "sherman", "outback", "flexkv")


def fig12_point_families(scale: Optional[Scale] = None,
                         workloads: Sequence[str] = ("C", "A", "D", "F"),
                         indexes: Sequence[str] = POINT_INDEXES,
                         client_sweep: Optional[Sequence[int]] = None,
                         seed: Optional[int] = None) -> List[Dict]:
    """Fig-12-style comparison across execution placements.

    Same sweep shape as :func:`fig12_ycsb`, restricted to point
    workloads, with one column per access-path placement: CHIME /
    Sherman traverse CN-side over one-sided verbs, Outback hash-routes
    through a CN-resident MPH to a one-RTT slot access, and FlexKV
    executes per-partition either CN-side or MN-offloaded.  Each row
    carries the family's ``default_placement`` so the table reads as a
    placement comparison, not just an index comparison.
    """
    scale = scale or current_scale()
    sweep = client_sweep or scale.client_sweep
    specs = [
        scale.point(index_name, workload,
                    scale.cluster_config(clients=clients, seed=seed),
                    extra=(("placement",
                            get_family(index_name).default_placement),))
        for workload in workloads
        for index_name in indexes
        for clients in sweep
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def figplacement(scale: Optional[Scale] = None,
                 footprint_fractions: Sequence[float] = (4.0, 1.0, 0.5, 0.1),
                 seed: Optional[int] = None) -> List[Dict]:
    """FlexKV dynamic placement under a shrinking CN cache budget.

    One YCSB-C run per cache budget, anchored to the FlexKV *directory
    footprint* for the preset's key count (the preset cache is sized
    for tree inner nodes, which say nothing about whether a flat hash
    directory fits).  With a roomy multiple every partition directory
    stays resident and execution remains CN-side; as the budget shrinks
    below the footprint, directory misses accumulate and the
    cache-pressure policy flips partitions to MN-side offload
    (``placement.switch`` events, surfaced as the ``switches`` /
    ``mn_partitions`` columns).  The system converges to keeping
    CN-side exactly what fits.
    """
    from repro.baselines.flexkv import FlexKVIndex

    scale = scale or current_scale()
    base = scale.cluster_config(seed=seed)
    footprint = FlexKVIndex.directory_bytes(scale.num_keys, base.num_mns)
    specs = [
        scale.point("flexkv", "C", base.scaled(
            cache_bytes=max(1024, int(footprint * fraction))))
        for fraction in footprint_fractions
    ]
    return [{
        "index": "flexkv",
        "workload": "C",
        "cache_bytes": spec.cluster_config.cache_bytes,
        "throughput_mops": round(result.throughput_mops, 4),
        "p50_us": result.summary().get("p50_us", 0.0),
        "switches": int(result.notes.get("placement.switches", 0)),
        "mn_partitions": int(
            result.notes.get("placement.mn_partitions", 0)),
    } for spec, result in zip(specs, run_sweep(specs, jobs=scale.jobs))]


# --------------------------------------------------------------------------
# Figure 12 companion — multi-MN key-space sharding
# --------------------------------------------------------------------------

def figshard_scaleout(scale: Optional[Scale] = None,
                      workloads: Sequence[str] = ("C", "A"),
                      mn_sweep: Sequence[int] = (1, 2, 4),
                      client_sweep: Optional[Sequence[int]] = None,
                      cache_mode: str = "shared",
                      seed: Optional[int] = None) -> List[Dict]:
    """Aggregate throughput vs MN count under key-space sharding.

    Fig-12-style client sweep repeated per MN count, with the key space
    carved one shard per MN (see :mod:`repro.cluster.shards`).  A single
    MN NIC is the wall once enough clients pile on; each added MN brings
    its own NIC, so past saturation the aggregate Mops rows should scale
    with ``num_mns`` while the low-client rows stay flat (the bottleneck
    there is op latency, not MN bandwidth).  Only shardable families
    run; ``cache_mode="partitioned"`` reruns the sweep under DEX-style
    per-CN cache ownership.
    """
    scale = scale or current_scale()
    sweep = client_sweep or scale.client_sweep
    specs = [
        scale.point("chime", workload,
                    scale.cluster_config(clients=clients, seed=seed,
                                         num_mns=num_mns,
                                         num_shards=num_mns,
                                         cache_mode=cache_mode),
                    extra=(("num_mns", num_mns),))
        for workload in workloads
        for num_mns in mn_sweep
        for clients in sweep
    ]
    return sweep_rows(specs, jobs=scale.jobs)


# --------------------------------------------------------------------------
# Figure 13 — variable-length KV items
# --------------------------------------------------------------------------

def fig13_variable_kv(scale: Optional[Scale] = None,
                      workloads: Sequence[str] = ("A", "C", "D", "E",
                                                  "LOAD"),
                      value_size: int = 32,
                      seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, workload, scale.cluster_config(seed=seed),
                    value_size=value_size)
        for workload in workloads
        for index_name in INDIRECT_INDEXES
        if not (workload == "LOAD" and get_family(index_name).family == "rolex")
    ]
    return sweep_rows(specs, jobs=scale.jobs)


# --------------------------------------------------------------------------
# Figure 14 — cache consumption vs dataset size
# --------------------------------------------------------------------------

def fig14_cache_consumption(scale: Optional[Scale] = None,
                            size_factors: Sequence[float] = (0.67, 1.0, 2.0),
                            ) -> List[Dict]:
    scale = scale or current_scale()
    rows: List[Dict] = []
    for factor in size_factors:
        num_keys = int(scale.num_keys * factor)
        pairs = dataset(num_keys, key_space=0, seed=scale.seed)
        for index_name in ("chime", "sherman", "rolex", "smart"):
            cluster = Cluster(scale.cluster_config(clients=2,
                                                   cache_bytes=None))
            family = get_family(index_name)
            index = build_index(
                index_name, cluster,
                chime_overrides=scale.chime_overrides(index_name))
            if family.model_routed:
                index.bulk_load(pairs, future_keys=())
            else:
                index.bulk_load(pairs)
            cache_bytes = index.cache_bytes_needed()
            hotspot = scale.hotspot_bytes if family.accepts_overrides else 0
            rows.append({"index": index_name, "num_keys": num_keys,
                         "cache_bytes": cache_bytes,
                         "hotspot_bytes": hotspot,
                         "total_bytes": cache_bytes + hotspot})
    return rows


# --------------------------------------------------------------------------
# Figure 15 — factor analysis (technique-by-technique)
# --------------------------------------------------------------------------

#: Steps applied cumulatively to the Sherman-like base (fig. 15a).
FACTOR_STEPS = (
    ("sherman", None),
    ("+hopscotch-leaf", dict(vacancy_bitmap=False,
                             metadata_replication=False,
                             sibling_validation=False,
                             speculative_read=False)),
    ("+vacancy-piggyback", dict(metadata_replication=False,
                                sibling_validation=False,
                                speculative_read=False)),
    ("+metadata-replication", dict(sibling_validation=False,
                                   speculative_read=False)),
    ("+sibling-validation", dict(speculative_read=False)),
    ("+speculative-read(=chime)", None),
)


def fig15b_learned_branch(scale: Optional[Scale] = None,
                          workloads: Sequence[str] = ("C", "A"),
                          seed: Optional[int] = None) -> List[Dict]:
    """Figure 15b + §5.3: applying the hopscotch leaf to ROLEX.

    ROLEX -> CHIME-Learned (model routing over hopscotch leaves) ->
    CHIME.  CHIME-Learned beats ROLEX (neighborhood reads instead of
    whole leaf tables) but loses to CHIME because the model error makes
    it fetch one neighborhood per candidate leaf.
    """
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, workload, scale.cluster_config(seed=seed))
        for workload in workloads
        for index_name in ("rolex", "chime-learned", "chime")
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def fig15_factor_analysis(scale: Optional[Scale] = None,
                          workloads: Sequence[str] = ("C", "LOAD", "A"),
                          seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    specs = [
        scale.point("sherman" if step_name == "sherman" else "chime",
                    workload, scale.cluster_config(seed=seed),
                    overrides=overrides, extra=(("step", step_name),))
        for workload in workloads
        for step_name, overrides in FACTOR_STEPS
    ]
    return sweep_rows(specs, jobs=scale.jobs)


# --------------------------------------------------------------------------
# Figure 16 — sibling-based validation metadata savings
# --------------------------------------------------------------------------

def fig16_sibling_validation() -> List[Dict]:
    from repro.core.node_layout import LeafLayout
    rows: List[Dict] = []
    for key_size in (8, 16, 32, 64, 128, 256):
        fenced = LeafLayout(span=64, neighborhood=8, key_size=key_size,
                            fence_keys=True)
        sibling = LeafLayout(span=64, neighborhood=8, key_size=key_size,
                             fence_keys=False)
        fenced_meta = fenced.replica_size * fenced.num_blocks
        sibling_meta = sibling.replica_size * sibling.num_blocks
        rows.append({
            "key_size": key_size,
            "fence_replica_bytes": fenced_meta,
            "sibling_replica_bytes": sibling_meta,
            "metadata_saving_ratio": round(fenced_meta / sibling_meta, 2),
        })
    return rows


# --------------------------------------------------------------------------
# Figure 17 — speculative-read contribution under saturation
# --------------------------------------------------------------------------

def fig17_speculative(scale: Optional[Scale] = None,
                      client_sweep: Optional[Sequence[int]] = None,
                      seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    sweep = client_sweep or scale.client_sweep
    specs = [
        scale.point("chime", "C",
                    scale.cluster_config(clients=clients, seed=seed),
                    overrides={"speculative_read": speculative},
                    extra=(("speculative_read", speculative),))
        for speculative in (False, True)
        for clients in sweep
    ]
    return sweep_rows(specs, jobs=scale.jobs)


# --------------------------------------------------------------------------
# Figure 18 — sensitivity sweeps
# --------------------------------------------------------------------------

def fig18a_skewness(scale: Optional[Scale] = None,
                    thetas: Sequence[float] = (0.5, 0.7, 0.9, 0.99),
                    indexes: Sequence[str] = ("chime", "sherman", "rolex",
                                              "smart"),
                    seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, "A", scale.cluster_config(seed=seed),
                    theta=theta, extra=(("theta", theta),))
        for index_name in indexes
        for theta in thetas
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def skew_sync_sweep(scale: Optional[Scale] = None,
                    sync_modes: Sequence[str] = ("optimistic",
                                                 "pessimistic",
                                                 "adaptive"),
                    client_sweep: Sequence[int] = (8, 16, 32, 48, 96),
                    thetas: Sequence[float] = (0.6, 0.99),
                    num_keys: int = 400,
                    num_cns: int = 4,
                    seed: Optional[int] = None) -> List[Dict]:
    """Sync-mode contention sweep: the optimistic/pessimistic crossover.

    Drives CHIME through write-heavy YCSB A on a deliberately dense
    keyspace (*num_keys* is fixed, not scaled: per-leaf write contention
    is the variable under study) while sweeping client count under
    moderate and heavy Zipf skew, once per lock synchronization mode
    (see :mod:`repro.core.adaptive`).  Leases are forced on — the queue
    carries the lease for crash recovery, so this is the configuration
    the robustness machinery actually runs with.

    Expected shape: at the uncontended end the optimistic CAS costs one
    verb where the ticket queue costs three, so ``optimistic`` wins; as
    clients pile onto the same leaves the spinners' atomics congest the
    MN NIC that every holder's data path also needs, and ``pessimistic``
    (FIFO tickets + CN-local delegation) overtakes it.  ``adaptive``
    should track the better of the two at both extremes and can beat
    both in between, since it picks per leaf.
    """
    scale = scale or current_scale()
    specs = [
        scale.point("chime", "A",
                    replace(scale.cluster_config(clients=clients,
                                                 num_cns=num_cns,
                                                 sync_mode=mode,
                                                 seed=seed),
                            lock_leases=True),
                    num_keys=num_keys, key_space=0, theta=theta,
                    extra=(("sync_mode", mode), ("theta", theta)))
        for mode in sync_modes
        for theta in thetas
        for clients in client_sweep
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def fig18b_cache_size(scale: Optional[Scale] = None,
                      factors: Sequence[float] = (0.25, 1.0, 4.0, 16.0),
                      indexes: Sequence[str] = ("chime", "sherman", "rolex",
                                                "smart"),
                      seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, "C",
                    scale.cluster_config(
                        cache_bytes=int(scale.cache_bytes * factor),
                        seed=seed),
                    unlimited_cache_for=(),
                    extra=(("cache_budget",
                            int(scale.cache_bytes * factor)),))
        for index_name in indexes
        for factor in factors
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def fig18c_inline_value_size(scale: Optional[Scale] = None,
                             sizes: Sequence[int] = (8, 64, 256, 512),
                             indexes: Sequence[str] = ("chime", "sherman",
                                                       "rolex", "smart"),
                             seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, "C", scale.cluster_config(seed=seed),
                    value_size=size, extra=(("value_size", size),))
        for index_name in indexes
        for size in sizes
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def fig18d_indirect_value_size(scale: Optional[Scale] = None,
                               sizes: Sequence[int] = (8, 64, 256, 512),
                               seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, "C", scale.cluster_config(seed=seed),
                    value_size=size, extra=(("value_size", size),))
        for index_name in INDIRECT_INDEXES
        for size in sizes
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def fig18e_span_size(scale: Optional[Scale] = None,
                     spans: Sequence[int] = (16, 64, 128, 256),
                     seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    specs = [
        scale.point(index_name, "C", scale.cluster_config(seed=seed),
                    span=span, extra=(("span", span),))
        for index_name in ("chime", "sherman", "rolex")
        for span in spans
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def fig18f_neighborhood_size(scale: Optional[Scale] = None,
                             neighborhoods: Sequence[int] = (2, 4, 8, 16),
                             seed: Optional[int] = None) -> List[Dict]:
    scale = scale or current_scale()
    specs = [
        scale.point("chime", "C", scale.cluster_config(seed=seed),
                    neighborhood=neighborhood,
                    extra=(("neighborhood", neighborhood),))
        for neighborhood in neighborhoods
    ]
    return sweep_rows(specs, jobs=scale.jobs)


# --------------------------------------------------------------------------
# Figure 19 — span/neighborhood/load-factor/hotspot in-depth analyses
# --------------------------------------------------------------------------

def fig19a_span_metrics(scale: Optional[Scale] = None,
                        spans: Sequence[int] = (16, 32, 64, 128, 256),
                        ) -> List[Dict]:
    scale = scale or current_scale()
    pairs = dataset(scale.num_keys, key_space=scale.key_space,
                    seed=scale.seed)
    rows: List[Dict] = []
    for span in spans:
        cluster = Cluster(scale.cluster_config(clients=2, cache_bytes=None))
        index = ChimeIndex(cluster, ChimeConfig(span=span, neighborhood=8))
        index.bulk_load(pairs)
        load_factor = measure_max_load_factor(
            lambda s=span: HopscotchTable(s, 8), trials=10)
        rows.append({"span": span,
                     "cache_bytes": index.cache_bytes_needed(),
                     "max_load_factor": round(load_factor, 4)})
    return rows


def fig19b_neighborhood_load_factor(span: int = 64,
                                    neighborhoods: Sequence[int] = (2, 4, 8,
                                                                    16),
                                    ) -> List[Dict]:
    rows: List[Dict] = []
    for neighborhood in neighborhoods:
        factor = measure_max_load_factor(
            lambda n=neighborhood: HopscotchTable(span, n), trials=20)
        rows.append({"neighborhood": neighborhood, "span": span,
                     "max_load_factor": round(factor, 4)})
    return rows


def fig19c_hotspot_buffer(scale: Optional[Scale] = None,
                          factors: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
                          ) -> List[Dict]:
    scale = scale or current_scale()
    rows: List[Dict] = []
    for factor in factors:
        budget = int(scale.hotspot_bytes * factor)
        # Prepared by hand, not swept: the hotspot counters live on the
        # index, which a sweep worker does not return.
        cluster, index, context = scale.point(
            "chime", "C", overrides={"hotspot_bytes": budget,
                                     "speculative_read": budget > 0}
        ).prepare()
        result = run_workload(cluster, index, "C", scale.ops_per_client,
                              context)
        lookups, hits, correct, wrong = index.hotspot_stats()
        row = result.summary()
        row["index"] = "chime"
        row["hotspot_bytes"] = budget
        row["hit_ratio"] = round(hits / lookups, 4) if lookups else 0.0
        row["correct_ratio"] = round(correct / max(1, correct + wrong), 4)
        rows.append(row)
    return rows


# --------------------------------------------------------------------------
# Ablations — design choices beyond the paper's figures
# --------------------------------------------------------------------------

def ablation_cxl_atomics(scale: Optional[Scale] = None,
                         workloads: Sequence[str] = ("C", "LOAD"),
                         ) -> List[Dict]:
    """§4.5's CXL prediction: without masked-CAS the vacancy bitmap costs
    a dedicated READ, hurting insert workloads but not searches."""
    scale = scale or current_scale()
    specs = [
        scale.point("chime", workload,
                    overrides={"cxl_atomics": mode == "cxl-atomics"},
                    extra=(("mode", mode),))
        for workload in workloads
        for mode in ("rdma-masked-cas", "cxl-atomics")
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def ablation_rdwc(scale: Optional[Scale] = None,
                  thetas: Sequence[float] = (0.5, 0.99)) -> List[Dict]:
    """Read delegation / write combining under skew (why Fig. 18a's
    curves rise instead of collapsing)."""
    scale = scale or current_scale()
    specs = [
        scale.point("chime", "A", scale.cluster_config().scaled(rdwc=rdwc),
                    theta=theta, extra=(("rdwc", rdwc), ("theta", theta)))
        for rdwc in (False, True)
        for theta in thetas
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def ablation_local_lock_table(scale: Optional[Scale] = None) -> List[Dict]:
    """Sherman's CN-local lock table vs raw remote CAS spinning under a
    write-heavy contended workload."""
    scale = scale or current_scale()
    specs = [
        scale.point("chime", "A",
                    scale.cluster_config().scaled(local_lock_table=local),
                    extra=(("local_lock_table", local),))
        for local in (False, True)
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def ablation_torn_writes(scale: Optional[Scale] = None) -> List[Dict]:
    """What landing WRITEs cache line by cache line changes.

    Run with 64-byte values, so an entry straddles a line and its WRITE
    is split: at the default 8-byte value no WRITE exceeds a line and
    the flag cannot reach the run.  Chunk slices let queued READs through
    between landings and torn reads are retried, so throughput and tail
    latency move (a little, either way); ``retries`` also counts
    lock-CAS retries and does not rise with tearing here.
    """
    scale = scale or current_scale()
    specs = [
        scale.point("chime", "A",
                    scale.cluster_config().scaled(torn_writes=torn),
                    overrides={"value_size": 64},
                    extra=(("torn_writes", torn),))
        for torn in (False, True)
    ]
    return sweep_rows(specs, jobs=scale.jobs)


def ablation_write_amplification(scale: Optional[Scale] = None,
                                 value_sizes: Sequence[int] = (8, 64, 253),
                                 ) -> List[Dict]:
    """§4.5's update write-amplification claim: versions add one byte per
    63 payload bytes plus one per entry (~1.02x for 256 B items)."""
    scale = scale or current_scale()
    rows: List[Dict] = []
    for value_size in value_sizes:
        config = scale.cluster_config(clients=4)
        cluster = Cluster(config)
        index = build_index("chime", cluster, value_size=value_size)
        pairs = dataset(2000, seed=scale.seed)
        index.bulk_load(pairs)
        client = index.client(cluster.cns[0].clients[0])
        repeats = 64

        def driver():
            yield from client.search(1000)  # warm the cached path
            before = client.qp.stats.bytes_written
            for i in range(repeats):
                yield from client.update(pairs[i * 17 + 1][0], 5)
            rows.append({
                "value_size": value_size,
                "entry_payload_bytes": index.leaf_layout.entry_size,
                "written_bytes_per_update":
                    (client.qp.stats.bytes_written - before) / repeats,
            })

        cluster.engine.process(driver())
        cluster.run()
    for row in rows:
        # Unlock word (8 B) rides along with every update's data write.
        data_bytes = row["written_bytes_per_update"] - 8
        row["amplification_vs_entry"] = round(
            data_bytes / row["entry_payload_bytes"], 3)
    return rows
