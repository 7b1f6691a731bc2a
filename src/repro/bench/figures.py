"""Every paper table and figure as one record: what it measures, the bench
tables it writes and the paper's claims over its rows.

A :class:`Figure` is either a *grid*, a list of
:class:`~repro.bench.runner.PointSpec` built from a
:class:`~repro.bench.scale.Scale` and swept through
:func:`~repro.bench.parallel.sweep_rows`, or a *probe*, a function that
returns rows itself (analytic figures, cache-footprint builds, raw-QP
microbenchmarks, single-client probes).  ``python -m repro run`` and
``benchmarks/`` read the same records (:data:`FIGURES`), and rows are
computed once per (record, scale, axes) and memoized.

A keyword parameter of a grid or probe is an *axis*: a bench
:class:`Table` names the slice of it that the table runs (Fig. 12's four
tables are four workload slices of one grid).  Every other parameter of
a figure is a constant of its record.  A :class:`Claim` is a named
predicate over a table's rows; ``benchmarks/`` fails a table unless all
its claims hold.  Absolute numbers are simulated; the claims are about
*shape*: who wins, by what factor, where curves cross.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.parallel import run_sweep, sweep_rows
from repro.bench.runner import PointSpec, build_index, run_workload
from repro.bench.scale import Scale, current_scale
from repro.cluster.cluster import Cluster
from repro.config import ChimeConfig
from repro.core.chime import ChimeIndex
from repro.core.node_layout import LeafLayout
from repro.hashing.hopscotch import HopscotchTable
from repro.hashing.loadfactor import figure_3d_schemes, measure_max_load_factor
from repro.memory import MemoryNode, make_addr
from repro.obs import recording
from repro.rdma.verbs import RdmaQp
from repro.registry import get_family
from repro.sched import launch_clients
from repro.sim.engine import Engine
from repro.workloads.ycsb import INSERT, SCAN, SEARCH, UPDATE, Op, dataset

__all__ = ["Claim", "FIGURES", "Figure", "Table"]

Rows = List[Dict]

#: The headline indexes of Fig. 12.
MAIN_INDEXES = ("chime", "sherman", "rolex", "smart", "smart-opt")
#: The four range indexes of Figs. 3, 14 and 18.
RANGE_INDEXES = ("chime", "sherman", "rolex", "smart")
#: The variable-length-KV variants of Figs. 13 and 18d.
INDIRECT_INDEXES = ("chime-indirect", "marlin", "rolex-indirect", "smart-rcu")


@dataclass(frozen=True)
class Claim:
    """One paper claim: a *name* that states it and a predicate over rows."""

    name: str
    holds: Callable[[Rows], bool]


@dataclass(frozen=True)
class Table:
    """One bench table, ``benchmarks/results/<name>.txt``: the *axes*
    slice of its figure that it runs, the *columns* printed, its claims."""

    name: str
    title: str
    columns: Optional[Tuple[str, ...]] = None
    axes: Mapping = field(default_factory=dict)
    claims: Tuple[Claim, ...] = ()


@dataclass(frozen=True)
class Figure:
    """One paper table or figure: a grid or a probe, and its bench tables."""

    name: str
    title: str
    grid: Optional[Callable[..., List[PointSpec]]] = None
    probe: Optional[Callable[..., Rows]] = None
    tables: Tuple[Table, ...] = ()

    def rows(self, scale: Optional[Scale] = None, **axes) -> Rows:
        """The rows at *scale* (default :func:`current_scale`), with
        *axes* overriding the grid's or probe's defaults."""
        scale = scale or current_scale()
        key = (self.name, repr(scale), tuple(sorted(axes.items())))
        if key not in _MEMO:
            _MEMO[key] = (sweep_rows(self.grid(scale, **axes), jobs=scale.jobs)
                          if self.grid is not None else self.probe(scale, **axes))
        return _MEMO[key]

    def failed_claims(self, table: Table, rows: Rows) -> List[str]:
        """``figure.claim`` names of *table*'s claims that *rows* break."""
        return [f"{self.name}.{claim.name}" for claim in table.claims
                if not claim.holds(rows)]


_MEMO: Dict[tuple, Rows] = {}


# --------------------------------------------------------------------------
# Claim helpers
# --------------------------------------------------------------------------

def _match(rows: Rows, where: Mapping) -> Rows:
    return [row for row in rows if all(row[k] == v for k, v in where.items())]


def peak(rows: Rows, metric: str = "throughput_mops", **where) -> float:
    """The largest *metric* over the rows matching *where*."""
    return max(row[metric] for row in _match(rows, where))


def series(rows: Rows, x: str, y: str = "throughput_mops", **where) -> list:
    """*y* of the rows matching *where*, in ascending order of *x*."""
    return [row[y] for row in sorted(_match(rows, where), key=lambda row: row[x])]


def first(rows: Rows, x: str, y: str = "throughput_mops", **where):
    return series(rows, x, y, **where)[0]


def last(rows: Rows, x: str, y: str = "throughput_mops", **where):
    return series(rows, x, y, **where)[-1]


def rising(values: list, strictly: bool = False) -> bool:
    if strictly:
        return all(a < b for a, b in zip(values, values[1:]))
    return values == sorted(values)


def beats(by: str, winner, loser, factor: float = 1.0,
          metric: str = "throughput_mops", **where) -> Claim:
    """*winner*'s peak *metric* exceeds *factor* × *loser*'s; rows are
    told apart by column *by* and restricted to *where*."""
    scope = "".join(f"{value}: " for value in where.values())
    times = "" if factor == 1.0 else f"{factor} × "
    label = "" if metric == "throughput_mops" else f" ({metric})"
    return Claim(f"{scope}{winner} > {times}{loser}{label}",
                 lambda rows: (peak(rows, metric, **{by: winner}, **where)
                               > factor * peak(rows, metric, **{by: loser}, **where)))


def declines(rows: Rows, index: str, x: str) -> float:
    """First over last throughput of *index* along *x*."""
    return first(rows, x, index=index) / max(last(rows, x, index=index), 1e-9)


# --------------------------------------------------------------------------
# Probes: figures that are not a sweep of YCSB points
# --------------------------------------------------------------------------

def _loaded_cache_bytes(scale: Scale, index_name: str, pairs, **shape) -> int:
    """CN cache bytes an index needs once *pairs* are bulk loaded."""
    cluster = Cluster(scale.cluster_config(clients=2, cache_bytes=None))
    index = build_index(index_name, cluster, **shape)
    if get_family(index_name).model_routed:
        index.bulk_load(pairs, future_keys=())
    else:
        index.bulk_load(pairs)
    return index.cache_bytes_needed()


def fig3a_tradeoff(scale: Scale) -> Rows:
    """Cache bytes per key of built indexes against read amplification:
    Sherman/ROLEX per span, SMART one point, CHIME per neighborhood."""
    pairs = dataset(scale.num_keys, key_space=scale.key_space, seed=scale.seed)

    def point(index, span_column, amplification, **shape):
        return {"index": index, "span": span_column, "amplification_factor": amplification,
                "cache_bytes_per_key":
                    _loaded_cache_bytes(scale, index, pairs, **shape) / scale.num_keys}

    rows = [point(index, span, factor * span, span=span)
            for span in (16, 64, 256) for index, factor in (("sherman", 1), ("rolex", 2))]
    rows.append(point("smart", 0, 1))
    rows.extend(point("chime", 64, h, span=64, neighborhood=h) for h in (4, 8, 16))
    return rows


def fig3d_hashing(scale: Scale) -> Rows:
    return [{"scheme": r.scheme, "amplification_factor": r.amplification_factor,
             "max_load_factor": round(r.max_load_factor, 4)}
            for r in figure_3d_schemes(capacity=128)]


def _raw_read_mops(reads_per_op: Sequence[int], clients: int, scale: Scale,
                   ops: int = 300) -> float:
    """Mops of raw QPs in a closed loop issuing fixed-size READ groups at
    one MN: no index and no cluster, so no client lanes either."""
    engine = Engine()
    mns = {0: MemoryNode(engine, 0, 1 << 22, nic_spec=scale.nic_spec())}
    completed = [0]

    def client(offset: int):
        qp = RdmaQp(engine, mns)
        for _ in range(ops):
            if len(reads_per_op) == 1:
                yield from qp.read(make_addr(0, offset), reads_per_op[0])
            else:
                yield from qp.read_batch([(make_addr(0, offset + 4096 * i), size)
                                          for i, size in enumerate(reads_per_op)])
            completed[0] += 1

    for i in range(clients):
        engine.process(client(64 + i * 128))
    engine.run()
    return completed[0] / engine.now / 1e6


def fig4_micro(scale: Scale) -> Rows:
    """Raw READ streams: (a) the vacancy bitmap access, (b) leaf metadata,
    (c) neighborhood size, at the entry sizes of a span-64 leaf."""
    layout = LeafLayout(span=64, neighborhood=8)
    hop_range, replica = 8 * layout.entry_size, layout.replica_size
    cases = [("4a", "ideal-hop-range", [hop_range]),
             ("4a", "vacancy-extra-access", [8, hop_range]),
             ("4a", "entire-leaf", [64 * layout.entry_size]),
             ("4b", "replicated-metadata", [hop_range + replica]),
             ("4b", "dedicated-metadata-access", [replica, hop_range])]
    cases += [("4c", f"H={h}", [h * LeafLayout(span=64, neighborhood=h).entry_size])
              for h in (1, 2, 4, 8, 16)]
    return [{"panel": panel, "case": case, "mops": _raw_read_mops(reads, scale.clients, scale)}
            for panel, case, reads in cases]


def _op_records(cluster: Cluster, index, ops: Sequence[Op]):
    """Run *ops* as one stream on the cluster's first client; the op
    record of each, verbs included."""
    with recording() as record:
        launch_clients(cluster, index, [ops], warmup=0)
        cluster.run()
    return record.ops()


def table1_rtts(scale: Scale) -> Rows:
    """RTTs per CHIME op, best case (everything cached) and worst case (no
    CN cache), against the paper's formulas: each op once to warm the
    caches, then the mean over eight more."""
    best = {"search": "1-2", "insert": "3", "update": "3-4", "scan": "1"}
    worst = {"search": "+1-2", "insert": "+3", "update": "+3-4", "scan": "+1"}
    rows: Rows = []
    for case, cache_bytes in (("best", None), ("worst", 0)):
        cluster = Cluster(scale.cluster_config(clients=1, cache_bytes=cache_bytes))
        index = ChimeIndex(cluster, ChimeConfig(hotspot_bytes=scale.hotspot_bytes))
        pairs = dataset(scale.num_keys, key_space=scale.key_space, seed=scale.seed)
        index.bulk_load(pairs)
        keys = [pairs[97 * (i + 1)][0] for i in range(9)]
        records = _op_records(cluster, index, [Op(SEARCH, key) for key in keys]
                              + [Op(UPDATE, key, 5) for key in keys]
                              + [Op(INSERT, scale.key_space + 1000 + i, 1) for i in range(9)]
                              + [Op(SCAN, key, scan_count=20) for key in keys])
        height = index.root_level
        for op in ("search", "update", "insert", "scan"):
            rtts = [len(record.verbs) for record in records if record.name == op][1:]
            rows.append({"case": case, "op": op, "tree_height": height,
                         "measured_rtts": round(sum(rtts) / len(rtts), 2),
                         "paper_formula": best[op] if case == "best" else f"{height}{worst[op]}"})
    return rows


def figplacement(scale: Scale) -> Rows:
    """FlexKV under a shrinking CN cache budget, anchored to its directory
    footprint: below it, directory misses flip partitions to MN-side
    offload (``switches`` / ``mn_partitions``)."""
    from repro.baselines.flexkv import FlexKVIndex

    base = scale.cluster_config()
    footprint = FlexKVIndex.directory_bytes(scale.num_keys, base.num_mns)
    specs = [scale.point("flexkv", "C", base.scaled(
        cache_bytes=max(1024, int(footprint * fraction)))) for fraction in (4.0, 1.0, 0.5, 0.1)]
    return [{"index": "flexkv", "workload": "C", "cache_bytes": spec.cluster_config.cache_bytes,
             "throughput_mops": round(result.throughput_mops, 4),
             "p50_us": result.summary().get("p50_us", 0.0),
             "switches": int(result.notes.get("placement.switches", 0)),
             "mn_partitions": int(result.notes.get("placement.mn_partitions", 0))}
            for spec, result in zip(specs, run_sweep(specs, jobs=scale.jobs))]


def fig14_cache_consumption(scale: Scale) -> Rows:
    """CN cache bytes (plus CHIME's hotspot buffer) against dataset size."""
    rows: Rows = []
    for factor in (0.67, 1.0, 2.0):
        num_keys = int(scale.num_keys * factor)
        pairs = dataset(num_keys, key_space=0, seed=scale.seed)
        for name in RANGE_INDEXES:
            cache_bytes = _loaded_cache_bytes(scale, name, pairs,
                                              chime_overrides=scale.chime_overrides(name))
            hotspot = scale.hotspot_bytes if get_family(name).accepts_overrides else 0
            rows.append({"index": name, "num_keys": num_keys, "cache_bytes": cache_bytes,
                         "hotspot_bytes": hotspot, "total_bytes": cache_bytes + hotspot})
    return rows


def fig16_sibling_validation(scale: Scale) -> Rows:
    rows: Rows = []
    for key_size in (8, 16, 32, 64, 128, 256):
        fenced, sibling = (LeafLayout(span=64, neighborhood=8, key_size=key_size,
                                      fence_keys=fence_keys) for fence_keys in (True, False))
        fenced_meta = fenced.replica_size * fenced.num_blocks
        sibling_meta = sibling.replica_size * sibling.num_blocks
        rows.append({"key_size": key_size, "fence_replica_bytes": fenced_meta,
                     "sibling_replica_bytes": sibling_meta,
                     "metadata_saving_ratio": round(fenced_meta / sibling_meta, 2)})
    return rows


def fig19a_span_metrics(scale: Scale) -> Rows:
    pairs = dataset(scale.num_keys, key_space=scale.key_space, seed=scale.seed)
    return [{"span": span,
             "cache_bytes": _loaded_cache_bytes(scale, "chime", pairs, span=span, neighborhood=8),
             "max_load_factor": round(measure_max_load_factor(
                 lambda: HopscotchTable(span, 8), trials=10), 4)}
            for span in (16, 32, 64, 128, 256)]


def fig19b_neighborhood_load_factor(scale: Scale) -> Rows:
    return [{"neighborhood": h, "span": 64, "max_load_factor": round(
                measure_max_load_factor(lambda: HopscotchTable(64, h), trials=20), 4)}
            for h in (2, 4, 8, 16)]


def fig19c_hotspot_buffer(scale: Scale) -> Rows:
    """YCSB C against the hotspot-buffer budget; prepared here, not swept,
    since the hotspot counters live on the index."""
    rows: Rows = []
    for factor in (0.0, 0.5, 1.0, 2.0):
        budget = int(scale.hotspot_bytes * factor)
        cluster, index, context = scale.point(
            "chime", "C", overrides={"hotspot_bytes": budget, "speculative_read": budget > 0}
        ).prepare()
        row = run_workload(cluster, index, "C", scale.ops_per_client, context).summary()
        lookups, hits, correct, wrong = index.hotspot_stats()
        row.update(index="chime", hotspot_bytes=budget,
                   hit_ratio=round(hits / lookups, 4) if lookups else 0.0,
                   correct_ratio=round(correct / max(1, correct + wrong), 4))
        rows.append(row)
    return rows


def ablation_write_amplification(scale: Scale,
                                 value_sizes: Sequence[int] = (8, 64, 253)) -> Rows:
    """§4.5: versions add one byte per 63 payload bytes plus one per entry
    (~1.02x for 256 B items).  Bytes written per update, read from the op
    records of 64 updates after one warming search."""
    rows: Rows = []
    for value_size in value_sizes:
        cluster = Cluster(scale.cluster_config(clients=4))
        index = build_index("chime", cluster, value_size=value_size)
        pairs = dataset(2000, seed=scale.seed)
        index.bulk_load(pairs)
        records = _op_records(cluster, index, [Op(SEARCH, 1000)] + [
            Op(UPDATE, pairs[i * 17 + 1][0], 5) for i in range(64)])
        written = [sum(verb.size for verb in record.verbs
                       if verb.kind in ("write", "write_batch")) for record in records[1:]]
        per_update = sum(written) / len(written)
        entry = index.leaf_layout.entry_size
        # The unlock word (8 B) rides along with every update's data write.
        rows.append({"value_size": value_size, "entry_payload_bytes": entry,
                     "written_bytes_per_update": per_update,
                     "amplification_vs_entry": round((per_update - 8) / entry, 3)})
    return rows


# --------------------------------------------------------------------------
# Grids: sweeps of YCSB points
# --------------------------------------------------------------------------

def _skips(workload: str, index_name: str) -> bool:
    """The paper runs no ROLEX on LOAD (§5.1 fn. 3)."""
    return workload == "LOAD" and get_family(index_name).family == "rolex"


def _knob_grid(indexes: Sequence[str], knob: str, values: Sequence, workload: str = "C"):
    """*workload* for each index at each value of one point field *knob*."""
    return lambda scale: [
        scale.point(name, workload, scale.cluster_config(), extra=((knob, value),),
                    **{knob: value})
        for name in indexes for value in values]


def _client_grid(num_mns: int, cache_factor: int, unlimited_cache_for=None):
    """YCSB C for each range index over the scale's client sweep."""
    return lambda scale: [
        scale.point(name, "C", scale.cluster_config(
            clients=clients, num_mns=num_mns, cache_bytes=cache_factor * scale.cache_bytes),
            unlimited_cache_for=unlimited_cache_for)
        for name in RANGE_INDEXES for clients in scale.client_sweep]


def _flag_grid(flag: str, **point):
    """CHIME on YCSB A with one :class:`ClusterConfig` flag off, then on."""
    return lambda scale: [
        scale.point("chime", "A", scale.cluster_config().scaled(**{flag: on}),
                    extra=((flag, on),), **point)
        for on in (False, True)]


def fig12_grid(scale: Scale, workloads: Sequence[str] = ("A", "B", "C", "D", "E", "LOAD")):
    return [scale.point(name, workload, scale.cluster_config(clients=clients))
            for workload in workloads for name in MAIN_INDEXES
            if not _skips(workload, name) for clients in scale.client_sweep]


def figpoint_grid(scale: Scale) -> List[PointSpec]:
    """Point workloads across access paths: CN-side traversal (CHIME,
    Sherman), hash-routed one-RTT slots (Outback) and per-partition CN/MN
    execution (FlexKV), each row tagged with its placement."""
    return [scale.point(name, workload, scale.cluster_config(clients=clients),
                        extra=(("placement", get_family(name).default_placement),))
            for workload in ("C", "A", "D", "F")
            for name in ("chime", "sherman", "outback", "flexkv")
            for clients in scale.client_sweep]


def figshard_grid(scale: Scale) -> List[PointSpec]:
    """CHIME over the client sweep per MN count, one key-space shard per
    MN: past saturation the aggregate Mops scale with the MNs."""
    return [scale.point("chime", workload, scale.cluster_config(
                clients=clients, num_mns=num_mns, num_shards=num_mns),
                extra=(("num_mns", num_mns),))
            for workload in ("C", "A") for num_mns in (1, 2, 4)
            for clients in scale.client_sweep]


def fig13_grid(scale: Scale, workloads: Sequence[str] = ("A", "C", "D", "E", "LOAD")):
    return [scale.point(name, workload, scale.cluster_config(), value_size=32)
            for workload in workloads for name in INDIRECT_INDEXES
            if not _skips(workload, name)]


#: Fig. 15a's steps, applied cumulatively to the Sherman-like base.
FACTOR_STEPS = (
    ("sherman", None),
    ("+hopscotch-leaf", dict(vacancy_bitmap=False, metadata_replication=False,
                             sibling_validation=False, speculative_read=False)),
    ("+vacancy-piggyback", dict(metadata_replication=False, sibling_validation=False,
                                speculative_read=False)),
    ("+metadata-replication", dict(sibling_validation=False, speculative_read=False)),
    ("+sibling-validation", dict(speculative_read=False)),
    ("+speculative-read(=chime)", None),
)


def fig15_grid(scale: Scale, workloads: Sequence[str] = ("C", "LOAD", "A")):
    return [scale.point("sherman" if step == "sherman" else "chime", workload,
                        scale.cluster_config(), overrides=overrides, extra=(("step", step),))
            for workload in workloads for step, overrides in FACTOR_STEPS]


def fig15b_grid(scale: Scale, workloads: Sequence[str] = ("C", "A")):
    """ROLEX -> CHIME-Learned (model routing over hopscotch leaves) -> CHIME."""
    return [scale.point(name, workload, scale.cluster_config())
            for workload in workloads for name in ("rolex", "chime-learned", "chime")]


def fig17_grid(scale: Scale) -> List[PointSpec]:
    return [scale.point("chime", "C", scale.cluster_config(clients=clients),
                        overrides={"speculative_read": speculative},
                        extra=(("speculative_read", speculative),))
            for speculative in (False, True) for clients in scale.client_sweep]


def fig18b_grid(scale: Scale) -> List[PointSpec]:
    return [scale.point(name, "C", scale.cluster_config(cache_bytes=budget),
                        unlimited_cache_for=(), extra=(("cache_budget", budget),))
            for name in RANGE_INDEXES
            for budget in (int(scale.cache_bytes * f) for f in (0.25, 1.0, 4.0, 16.0))]


def skew_sync_grid(scale: Scale) -> List[PointSpec]:
    """CHIME on YCSB A over 400 dense keys, 4 CNs, leases on, per sync mode
    × θ × clients: per-leaf write contention is the variable."""
    return [scale.point("chime", "A", replace(scale.cluster_config(
                clients=clients, num_cns=4, sync_mode=mode), lock_leases=True),
                num_keys=400, key_space=0, theta=theta,
                extra=(("sync_mode", mode), ("theta", theta)))
            for mode in ("optimistic", "pessimistic", "adaptive")
            for theta in (0.6, 0.99) for clients in (8, 16, 32, 48, 96)]


def ablation_cxl_grid(scale: Scale, workloads: Sequence[str] = ("C", "LOAD")):
    """§4.5: without masked-CAS the vacancy bitmap costs a dedicated READ."""
    return [scale.point("chime", workload, overrides={"cxl_atomics": mode == "cxl-atomics"},
                        extra=(("mode", mode),))
            for workload in workloads for mode in ("rdma-masked-cas", "cxl-atomics")]


def ablation_rdwc_grid(scale: Scale, thetas: Sequence[float] = (0.5, 0.99)):
    return [scale.point("chime", "A", scale.cluster_config().scaled(rdwc=rdwc), theta=theta,
                        extra=(("rdwc", rdwc), ("theta", theta)))
            for rdwc in (False, True) for theta in thetas]


# --------------------------------------------------------------------------
# The records
# --------------------------------------------------------------------------

YCSB = ("workload", "index", "clients", "throughput_mops", "p50_us", "p99_us")
SWEEP = ("index", "clients", "throughput_mops", "p50_us", "p99_us")


def _at_preset(rows: Rows, index: str) -> int:
    """Fig. 14's cache bytes of *index* at the middle size, the preset's."""
    return peak(rows, "cache_bytes", index=index,
                num_keys=sorted({row["num_keys"] for row in rows})[1])


def _chime_peak(workload: str, *others: str, factor: float = 1.0):
    return tuple(beats("index", "chime", other, factor, workload=workload) for other in others)


_FIGURES = (
    Figure("fig3a", "cache consumption vs amplification", probe=fig3a_tradeoff, tables=(Table(
        "fig3a_tradeoff", "Figure 3a: cache consumption vs amplification factor",
        ("index", "span", "amplification_factor", "cache_bytes_per_key"), claims=(
            Claim("smart: amplification 1",
                  lambda r: peak(r, "amplification_factor", index="smart") == 1),
            Claim("smart: cache per key > 4 × chime's largest",
                  lambda r: peak(r, "cache_bytes_per_key", index="smart")
                  > 4 * peak(r, "cache_bytes_per_key", index="chime")),
            Claim("chime's least amplification < sherman's",
                  lambda r: min(series(r, "span", "amplification_factor", index="chime"))
                  < min(series(r, "span", "amplification_factor", index="sherman"))))),)),
    Figure("fig3b", "YCSB C, limited bandwidth", grid=_client_grid(1, 10),
        tables=(Table(
            "fig3b_limited_bandwidth", "Figure 3b: YCSB C, limited bandwidth (1 MN, ample cache)",
            SWEEP + ("read_bytes_per_op",), claims=(
                beats("index", "smart", "sherman", 2), beats("index", "smart", "rolex", 2),
                beats("index", "chime", "sherman", 2))),)),
    Figure("fig3c", "YCSB C, limited cache", grid=_client_grid(8, 1, ()),
        tables=(Table(
            "fig3c_limited_cache", "Figure 3c: YCSB C, limited cache (8 MNs, scaled 100 MB)",
            SWEEP + ("cache_bytes",), claims=tuple(
                beats("index", name, "smart") for name in ("sherman", "rolex", "chime"))),)),
    Figure("fig3d", "hashing schemes", probe=fig3d_hashing, tables=(Table(
        "fig3d_hashing", "Figure 3d: hashing schemes on 128-entry tables",
        ("scheme", "amplification_factor", "max_load_factor"), claims=(
            Claim("hopscotch(H=8) > 0.80",
                  lambda r: peak(r, "max_load_factor", scheme="hopscotch(H=8)") > 0.80),
            Claim("hopscotch(H=16) > 0.95",
                  lambda r: peak(r, "max_load_factor", scheme="hopscotch(H=16)") > 0.95),
            Claim("hopscotch(H=8) >= every bucket scheme at no more amplification",
                  lambda r: all(peak(r, "max_load_factor", scheme="hopscotch(H=8)")
                                >= row["max_load_factor"] for row in r
                                if not row["scheme"].startswith("hopscotch")
                                and row["amplification_factor"]
                                <= peak(r, "amplification_factor",
                                        scheme="hopscotch(H=8)"))))),)),
    Figure("fig4", "metadata access microbenchmarks", probe=fig4_micro, tables=(Table(
        "fig4_micro", "Figure 4: metadata access / neighborhood microbenchmarks",
        ("panel", "case", "mops"), claims=(
            beats("case", "ideal-hop-range", "vacancy-extra-access", metric="mops"),
            beats("case", "ideal-hop-range", "entire-leaf", 2, metric="mops"),
            beats("case", "replicated-metadata", "dedicated-metadata-access", metric="mops"),
            # Small reads are IOPS-bound: H=1 is faster than H=8, far less than 8x.
            beats("case", "H=1", "H=8", metric="mops"),
            Claim("H=1 < 4 × H=8 (mops)", lambda r: peak(r, "mops", case="H=1")
                  < 4 * peak(r, "mops", case="H=8")))),)),
    Figure("table1", "round trips per operation (CHIME)", probe=table1_rtts, tables=(Table(
        "table1_rtts", "Table 1: round trips per operation (CHIME)",
        ("case", "op", "tree_height", "measured_rtts", "paper_formula"), claims=(
            Claim("best search in 1-2",
                  lambda r: 1 <= peak(r, "measured_rtts", case="best", op="search") <= 2),
            Claim("best insert in 3-4",
                  lambda r: 3 <= peak(r, "measured_rtts", case="best", op="insert") <= 4),
            Claim("best update in 3-4",
                  lambda r: 3 <= peak(r, "measured_rtts", case="best", op="update") <= 4),
            Claim("best scan <= 2",
                  lambda r: peak(r, "measured_rtts", case="best", op="scan") <= 2),
            Claim("worst search <= height + 2", lambda r: peak(
                r, "measured_rtts", case="worst", op="search") <= r[0]["tree_height"] + 2),
            Claim("worst insert <= height + 4", lambda r: peak(
                r, "measured_rtts", case="worst", op="insert") <= r[0]["tree_height"] + 4),
            beats("case", "worst", "best", metric="measured_rtts", op="search"))),)),
    Figure("fig12", "YCSB throughput-latency", grid=fig12_grid, tables=(
        Table("fig12_ycsb_read", "Figure 12 (B, C): search-heavy workloads", YCSB,
              {"workloads": ("B", "C")},
              _chime_peak("B", "sherman", "rolex", "smart", factor=1.5)
              + _chime_peak("C", "sherman", "rolex", "smart", factor=1.5)),
        Table("fig12_ycsb_update", "Figure 12 (A): update-heavy workload", YCSB,
              {"workloads": ("A",)}, _chime_peak("A", "sherman", "rolex", factor=1.3)),
        Table("fig12_ycsb_insert", "Figure 12 (D, LOAD): insert workloads", YCSB,
              {"workloads": ("D", "LOAD")}, _chime_peak("D", "sherman", "smart") + (
                  Claim("LOAD: no rolex (§5.1 fn. 3)",
                        lambda r: not _match(r, {"workload": "LOAD", "index": "rolex"})),
                  beats("index", "chime", "sherman", workload="LOAD"))),
        # ROLEX scans best (small leaves; the model's window arrives in one
        # batch), SMART worst (per-item reads saturate IOPS); CHIME beats
        # Sherman by reading its end leaves for their candidates (§4.4).
        Table("fig12_ycsb_scan", "Figure 12 (E): scan workload", YCSB,
              {"workloads": ("E",)}, tuple(beats("index", "rolex", other, workload="E")
                                           for other in ("sherman", "chime", "smart"))
              + _chime_peak("E", "sherman", "smart")))),
    Figure("figpoint", "point workloads across access-path placements", grid=figpoint_grid),
    Figure("figplacement", "FlexKV placement under a shrinking cache", probe=figplacement,
           tables=(Table(
               "figplacement", "FlexKV placement under a shrinking CN cache (YCSB C)",
               ("cache_bytes", "throughput_mops", "p50_us", "switches", "mn_partitions"), claims=(
                   # Placement is measured, not configured: a roomy cache keeps
                   # every partition CN-side, the smallest one goes MN-side.
                   Claim("the roomiest budget: 0 switches",
                         lambda r: last(r, "cache_bytes", "switches") == 0),
                   Claim("the smallest budget: switches > 0 and MN partitions > 0",
                         lambda r: first(r, "cache_bytes", "switches") > 0
                         and first(r, "cache_bytes", "mn_partitions") > 0))),)),
    Figure("figshard", "aggregate throughput vs MN count", grid=figshard_grid),
    Figure("fig13", "variable-length KV items", grid=fig13_grid, tables=(Table(
        "fig13_variable_kv", "Figure 13: variable-length KV items (32 B indirect values)",
        ("workload", "index", "throughput_mops", "p50_us", "p99_us"),
        {"workloads": ("A", "C", "D", "E")}, tuple(
            beats("index", "chime-indirect", other, workload=workload) for workload in ("A", "C")
            for other in ("marlin", "rolex-indirect", "smart-rcu"))),)),
    Figure("fig14", "cache consumption vs loaded items", probe=fig14_cache_consumption,
           tables=(Table(
               "fig14_cache", "Figure 14: cache consumption vs loaded items",
               ("index", "num_keys", "cache_bytes", "hotspot_bytes", "total_bytes"), claims=tuple(
                   Claim(f"smart > 3 × {name} at the preset's size", lambda r, name=name:
                         _at_preset(r, "smart") > 3 * _at_preset(r, name))
                   for name in ("chime", "sherman", "rolex")) + tuple(
                   Claim(f"{name} grows with the dataset", lambda r, name=name:
                         rising(series(r, "num_keys", "cache_bytes", index=name)))
                   for name in RANGE_INDEXES)),)),
    Figure("fig15", "factor analysis", grid=fig15_grid, tables=(Table(
        "fig15_factor", "Figure 15: factor analysis (Sherman -> CHIME)",
        ("workload", "step", "throughput_mops", "p50_us", "p99_us"),
        {"workloads": ("C", "LOAD")}, (
            beats("step", "+hopscotch-leaf", "sherman", 1.5, workload="C"),
            beats("step", "+metadata-replication", "+vacancy-piggyback", 1.2, workload="C"),
            # The vacancy piggyback is the LOAD-side win (paper: 1.6x).
            beats("step", "+vacancy-piggyback", "+hopscotch-leaf", 1.1, workload="LOAD"),
            beats("step", "+speculative-read(=chime)", "sherman", 2, workload="C"))),)),
    Figure("fig15b", "the hopscotch leaf under ROLEX", grid=fig15b_grid, tables=(Table(
        "fig15b_learned", "Figure 15b / §5.3: ROLEX -> CHIME-Learned -> CHIME",
        ("workload", "index", "throughput_mops", "p50_us", "p99_us", "read_bytes_per_op"),
        {"workloads": ("C", "A", "E")}, (
            beats("index", "chime-learned", "rolex", 1.5, workload="C"),
            beats("index", "chime", "chime-learned", workload="C"),
            beats("index", "chime", "chime-learned", workload="E"))),)),
    Figure("fig16", "sibling-based validation", probe=fig16_sibling_validation, tables=(Table(
        "fig16_sibling", "Figure 16: metadata size, fence keys vs sibling validation",
        ("key_size", "fence_replica_bytes", "sibling_replica_bytes", "metadata_saving_ratio"),
        claims=(
            Claim("8 B keys: saving >= 1.4",
                  lambda r: peak(r, "metadata_saving_ratio", key_size=8) >= 1.4),
            Claim("256 B keys: saving >= 6.0",
                  lambda r: peak(r, "metadata_saving_ratio", key_size=256) >= 6.0),
            Claim("saving grows with key size",
                  lambda r: rising(series(r, "key_size", "metadata_saving_ratio"))))),)),
    Figure("fig17", "speculative reads", grid=fig17_grid, tables=(Table(
        "fig17_specread", "Figure 17: speculative reads (YCSB C, client sweep)",
        ("speculative_read", "clients", "throughput_mops", "p50_us", "p99_us"), claims=(
            beats("speculative_read", True, False),
            # A bounded gain, per §3.2.3.
            Claim("True < 2.0 × False", lambda r: peak(r, speculative_read=True)
                  < 2.0 * peak(r, speculative_read=False)))),)),
    Figure("fig18a", "Zipfian skewness", grid=_knob_grid(
        RANGE_INDEXES, "theta", (0.5, 0.7, 0.9, 0.99), workload="A"), tables=(Table(
            "fig18a_skewness", "Figure 18a: Zipfian skewness (50% search + 50% update)",
            ("index", "theta", "throughput_mops", "p99_us"), claims=(
                # RDWC: CHIME does not degrade with skew.
                Claim("chime at the highest θ >= 0.7 × at the lowest",
                      lambda r: last(r, "theta", index="chime")
                      >= 0.7 * first(r, "theta", index="chime")),)),)),
    Figure("fig18b", "cache size", grid=fig18b_grid, tables=(Table(
        "fig18b_cache_size", "Figure 18b: cache size (YCSB C)",
        ("index", "cache_budget", "throughput_mops", "p50_us"), claims=(
            Claim("chime at the 1x budget > 0.9 × at 16x",
                  lambda r: series(r, "cache_budget", index="chime")[1]
                  > 0.9 * last(r, "cache_budget", index="chime")),
            Claim("smart at the 1x budget < 0.5 × at 16x",
                  lambda r: series(r, "cache_budget", index="smart")[1]
                  < 0.5 * last(r, "cache_budget", index="smart")),
            Claim("smart at 16x > 2 × at 0.25x",
                  lambda r: last(r, "cache_budget", index="smart")
                  > 2 * first(r, "cache_budget", index="smart")))),)),
    Figure("fig18c", "inline value size", grid=_knob_grid(
        RANGE_INDEXES, "value_size", (8, 64, 256, 512)), tables=(Table(
            "fig18c_inline_values", "Figure 18c: inline value size (YCSB C)",
            ("index", "value_size", "throughput_mops"), claims=(
                Claim("sherman declines > 2 × smart", lambda r: declines(
                    r, "sherman", "value_size") > 2 * declines(r, "smart", "value_size")),
                Claim("chime declines > smart", lambda r: declines(
                    r, "chime", "value_size") > declines(r, "smart", "value_size")))),)),
    Figure("fig18d", "indirect value size", grid=_knob_grid(
        INDIRECT_INDEXES, "value_size", (8, 64, 256, 512)), tables=(Table(
            "fig18d_indirect_values", "Figure 18d: indirect value size (YCSB C)",
            ("index", "value_size", "throughput_mops"), claims=tuple(
                Claim(f"{name}: 8 B < 3.5 × 512 B", lambda r, name=name: first(
                    r, "value_size", index=name) < 3.5 * last(r, "value_size", index=name))
                for name in INDIRECT_INDEXES)),)),
    Figure("fig18e", "span size", grid=_knob_grid(
        ("chime", "sherman", "rolex"), "span", (16, 64, 128, 256)), tables=(Table(
            "fig18e_span", "Figure 18e: span size (YCSB C)",
            ("index", "span", "throughput_mops"), claims=(
                Claim("sherman: span 16 > 2 × span 256", lambda r: first(
                    r, "span", index="sherman") > 2 * last(r, "span", index="sherman")),
                Claim("chime: span 256 > 0.5 × span 16", lambda r: last(
                    r, "span", index="chime") > 0.5 * first(r, "span", index="chime")))),)),
    Figure("fig18f", "neighborhood size", grid=_knob_grid(
        ("chime",), "neighborhood", (2, 4, 8, 16)), tables=(Table(
            "fig18f_neighborhood", "Figure 18f: neighborhood size (YCSB C)",
            ("index", "neighborhood", "throughput_mops"), claims=(
                Claim("H=2 > H=16 × 0.8",
                      lambda r: first(r, "neighborhood") > last(r, "neighborhood") * 0.8),
                Claim("H=2 < H=16 × 3.0",
                      lambda r: first(r, "neighborhood") < last(r, "neighborhood") * 3.0),
                # A wider neighbourhood reads more per op (one-byte bitmaps up
                # to H = 8, two at 16) and runs slower.
                Claim("Mops fall strictly with H",
                      lambda r: rising(series(r, "neighborhood")[::-1], strictly=True)),
                Claim("read bytes per op rise strictly with H", lambda r: rising(
                    series(r, "neighborhood", "read_bytes_per_op"), strictly=True)))),)),
    Figure("fig19a", "span size vs cache and load factor", probe=fig19a_span_metrics,
           tables=(Table(
               "fig19a_span_metrics", "Figure 19a: span size vs cache consumption + load factor",
               ("span", "cache_bytes", "max_load_factor"), claims=(
                   Claim("cache at the smallest span > at the largest", lambda r: first(
                       r, "span", "cache_bytes") > last(r, "span", "cache_bytes")),
                   Claim("load factor at the smallest span >= at the largest - 0.02",
                         lambda r: first(r, "span", "max_load_factor")
                         >= last(r, "span", "max_load_factor") - 0.02))),)),
    Figure("fig19b", "neighborhood size vs load factor", probe=fig19b_neighborhood_load_factor,
           tables=(Table(
               "fig19b_neighborhood_lf", "Figure 19b: neighborhood size vs max load factor",
               ("neighborhood", "span", "max_load_factor"), claims=(
                   Claim("H=2 < 0.7", lambda r: peak(r, "max_load_factor", neighborhood=2) < 0.7),
                   Claim("H=8 > 0.8", lambda r: peak(r, "max_load_factor", neighborhood=8) > 0.8),
                   Claim("H=16 > 0.95",
                         lambda r: peak(r, "max_load_factor", neighborhood=16) > 0.95),
                   Claim("rises strictly with H", lambda r: rising(
                       series(r, "neighborhood", "max_load_factor"), strictly=True)))),)),
    Figure("fig19c", "hotspot buffer size", probe=fig19c_hotspot_buffer, tables=(Table(
        "fig19c_hotspot", "Figure 19c: hotspot buffer size (YCSB C)",
        ("hotspot_bytes", "throughput_mops", "hit_ratio", "correct_ratio"), claims=(
            Claim("no buffer: hit ratio 0",
                  lambda r: peak(r, "hit_ratio", hotspot_bytes=0) == 0.0),
            Claim("hit ratio rises strictly with the budget",
                  lambda r: rising(series(r, "hotspot_bytes", "hit_ratio"), strictly=True)),
            Claim("every non-zero budget: correct ratio 1.0",
                  lambda r: all(row["correct_ratio"] == 1.0 for row in r if row["hotspot_bytes"])),
            Claim("largest buffer: hit ratio > 0.3",
                  lambda r: last(r, "hotspot_bytes", "hit_ratio") > 0.3),
            # Fingerprints keep speculation accurate (paper: ~100%).
            Claim("largest buffer: correct ratio > 0.9",
                  lambda r: last(r, "hotspot_bytes", "correct_ratio") > 0.9))),)),
    Figure("ablation-cxl", "RDMA masked-CAS vs CXL atomics", grid=ablation_cxl_grid,
           tables=(Table(
               "ablation_cxl", "Ablation: RDMA masked-CAS vs CXL atomics (§4.5)",
               ("workload", "mode", "throughput_mops", "p50_us", "rtts_per_op"), claims=(
                   # Searches take no lock; inserts pay the dedicated vacancy READ.
                   Claim("C: cxl-atomics == rdma-masked-cas",
                         lambda r: peak(r, workload="C", mode="cxl-atomics")
                         == peak(r, workload="C", mode="rdma-masked-cas")),
                   beats("mode", "cxl-atomics", "rdma-masked-cas", metric="rtts_per_op",
                         workload="LOAD"),
                   beats("mode", "rdma-masked-cas", "cxl-atomics", workload="LOAD"))),)),
    Figure("ablation-rdwc", "read delegation / write combining vs skew",
           grid=ablation_rdwc_grid, tables=(Table(
               "ablation_rdwc", "Ablation: read delegation / write combining vs skew",
               ("rdwc", "theta", "throughput_mops", "p99_us"), claims=(
                   beats("rdwc", True, False, theta=0.99),
                   beats("rdwc", True, False, 0.7, theta=0.5))),)),
    Figure("ablation-locks", "CN-local lock table", grid=_flag_grid("local_lock_table"),
           tables=(Table(
               "ablation_local_locks", "Ablation: CN-local lock table under write contention",
               ("local_lock_table", "throughput_mops", "p99_us", "retries"), claims=(
                   Claim("retries with the local table <= without",
                         lambda r: peak(r, "retries", local_lock_table=True)
                         <= peak(r, "retries", local_lock_table=False)),)),)),
    # 64-byte values straddle a cache line; at 8 bytes no WRITE is split.
    Figure("ablation-torn", "torn-write modelling",
           grid=_flag_grid("torn_writes", overrides={"value_size": 64}), tables=(Table(
               "ablation_torn_writes", "Ablation: torn-write modelling (64-byte values)",
               ("torn_writes", "throughput_mops", "p99_us", "retries"), claims=(
                   Claim("the flag reaches the run",
                         lambda r: _match(r, {"torn_writes": True}) != [
                             {**row, "torn_writes": True}
                             for row in _match(r, {"torn_writes": False})]),
                   beats("torn_writes", True, False, 0.5))),)),
    Figure("ablation-write-amp", "update write amplification",
           probe=ablation_write_amplification, tables=(Table(
               "ablation_write_amp", "Ablation: update write amplification (§4.5: ~1.02x)",
               claims=(Claim("every value size: 1.0-1.05x", lambda r: all(
                   1.0 <= row["amplification_vs_entry"] <= 1.05 for row in r)),)),)),
    Figure("skew-sync", "sync-mode crossover under contention", grid=skew_sync_grid),
)

#: Every figure by its CLI name, in ``repro list`` order.
FIGURES: Dict[str, Figure] = {figure.name: figure for figure in _FIGURES}
