"""The chaos harness: seeded fault campaigns against a live CHIME tree.

:func:`run_chaos` builds a small cluster, bulk-loads the configured
index family (CHIME by default; any registry family with
``supports_chaos``), installs a
:class:`~repro.faults.plan.FaultPlan` derived from a
:class:`ChaosConfig` (by default: crash one client's CN between its
lock-acquiring CAS and the unlocking WRITE), drives a mixed workload
from every client, and then verifies the tree with
:func:`~repro.faults.invariants.check_tree_invariants`.

Everything — workload choices, fault draws, simulated time — is seeded,
so a config maps to exactly one :class:`ChaosResult`; running twice and
comparing ``json.dumps(result.to_dict(), sort_keys=True)`` is the
determinism regression test.

The canonical experiment pair (see EXPERIMENTS.md):

* ``lock_leases=False`` — the crashed client's leaf lock is orphaned;
  survivors that touch the victim leaf spin their whole retry budget and
  die with :class:`~repro.errors.RetryExhaustedError`; the invariant
  checker flags the stuck lock bit.
* ``lock_leases=True`` — survivors wait out the lease, CAS-steal it,
  repair the leaf, and every survivor operation completes.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.node_layout import sim_us
from repro.errors import ReproError, WorkloadError
from repro.faults.invariants import InvariantReport, check_index_invariants
from repro.faults.plan import FaultPlan
from repro.obs import recording
from repro.registry import build_index, get_family
from repro.retry import DEFAULT_RETRY_POLICY
from repro.sched import LaneContext, stranded_tickets
from repro.workloads.ycsb import dataset

__all__ = ["ChaosConfig", "ChaosResult", "build_plan", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign, fully determined by its fields."""

    seed: int = 7
    #: Registry legend name of the index under test.  Any family with
    #: ``supports_chaos`` runs: the tree families get the full lock /
    #: lease / fence audit, hash-structured KV families (outback,
    #: flexkv) the generic committed-key audit (see
    #: :func:`~repro.faults.invariants.check_index_invariants`).
    index: str = "chime"
    num_cns: int = 2
    num_mns: int = 1
    clients_per_cn: int = 3
    #: Bulk-loaded keys, sampled sparsely from [1, key_space] so client
    #: operations spread across many leaves.
    initial_keys: int = 400
    key_space: int = 800
    ops_per_client: int = 40
    span: int = 64
    # Recovery knobs.
    lock_leases: bool = True
    lease_duration: float = 200e-6
    #: Lock synchronization mode (see :mod:`repro.core.adaptive`):
    #: "optimistic" (masked-CAS spin), "pessimistic" (FIFO ticket
    #: queue), or "adaptive" (per-leaf auto-switch).
    sync_mode: str = "optimistic"
    # Retry policy (None deadline = attempts-bounded only).
    max_attempts: int = 256
    deadline: Optional[float] = None
    # Crash spec ("" disables). The default kills cn0/c0's CN right
    # before its first write verb — i.e. with the leaf lock held and no
    # data landed, the worst orphan a dead CN can leave behind.
    crash_owner: str = "cn0/c0"
    crash_kinds: Tuple[str, ...] = ("write", "write_batch")
    crash_nth: int = 1
    crash_when: str = "before"
    # Fabric noise.
    loss_probability: float = 0.0
    loss_max_count: Optional[int] = None
    delay_probability: float = 0.0
    delay: float = 5e-6
    #: (mn_id, start, end) unavailability windows in simulated seconds.
    mn_outages: Tuple[Tuple[int, float, float], ...] = ()
    verb_timeout: float = 10e-6
    # Workload mix (remainder of the unit interval is searches).
    insert_fraction: float = 0.5
    update_fraction: float = 0.25
    #: Op coroutines ("lanes") per client (see :mod:`repro.sched`).
    #: 1 keeps the historical strictly serial chaos clients; higher
    #: depths overlap ops, so a CN crash parks several in-flight lanes.
    pipeline_depth: int = 1
    #: Key-space shards (0 = the legacy single tree; >= 1 builds the
    #: index as per-shard sub-trees via the registry; see
    #: :mod:`repro.cluster.shards`).
    num_shards: int = 0
    #: CN cache admission under sharding ("shared" or "partitioned").
    cache_mode: str = "shared"
    #: Scheduled online migrations: (shard, target_mn, start_seconds)
    #: tuples, each kicked off at its simulated start time while the
    #: chaos workload (and any injected faults) are running.
    migrations: Tuple[Tuple[int, int, float], ...] = ()


@dataclass
class ChaosResult:
    """Everything a chaos run produced, JSON-stable for diffing."""

    config: Dict
    sim_time_us: int
    completed: Dict[str, int]
    errors: List[Dict]
    inserted: int
    dead_cns: List[int]
    fault_counters: Dict[str, int]
    metrics: Dict[str, float]
    invariants: InvariantReport = field(default_factory=InvariantReport)
    #: Coroutines parked at a verb by their CN's death, per qp owner.
    parked: Dict[str, int] = field(default_factory=dict)
    #: Queue tickets left outstanding by parked waiters (pessimistic/
    #: adaptive sync only; see :func:`repro.sched.stranded_tickets`).
    stranded_tickets: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.invariants.ok and not self.errors

    def to_dict(self) -> Dict:
        return {
            "config": self.config,
            "sim_time_us": self.sim_time_us,
            "completed": dict(sorted(self.completed.items())),
            "errors": list(self.errors),
            "inserted": self.inserted,
            "dead_cns": list(self.dead_cns),
            "fault_counters": dict(sorted(self.fault_counters.items())),
            "metrics": dict(sorted(self.metrics.items())),
            "invariants": self.invariants.to_dict(),
            "parked": dict(sorted(self.parked.items())),
            "stranded_tickets": list(self.stranded_tickets),
        }


def build_plan(cfg: ChaosConfig) -> FaultPlan:
    """Translate a :class:`ChaosConfig` into a :class:`FaultPlan`."""
    plan = FaultPlan(seed=cfg.seed, verb_timeout=cfg.verb_timeout)
    if cfg.crash_owner:
        plan.crash(cfg.crash_owner, kinds=cfg.crash_kinds,
                   nth=cfg.crash_nth, when=cfg.crash_when)
    if cfg.loss_probability > 0.0:
        plan.drop(cfg.loss_probability, max_count=cfg.loss_max_count)
    if cfg.delay_probability > 0.0:
        plan.spike(cfg.delay_probability, cfg.delay)
    for mn_id, start, end in cfg.mn_outages:
        plan.outage(mn_id, start, end)
    return plan


def _client_ops(cfg: ChaosConfig, client_index: int) -> List[Tuple[str, int]]:
    """Pre-draw one client's op list as ``(kind, key)`` tuples.

    The mix is drawn from a per-client RNG seeded from (campaign seed,
    client index) only — no globals, no hashing — so the stream is
    stable across runs and interpreter invocations.  The consumption
    order (key first, then the mix draw) matches the historical inline
    loop exactly, and the draws never depended on execution results, so
    pre-materializing keeps every campaign byte-identical.  The first
    op is always an insert, guaranteeing the default crash spec (die
    before the first write verb) catches its victim holding a leaf
    lock.
    """
    rng = random.Random(cfg.seed * 1_000_003 + 7919 * client_index)
    ops: List[Tuple[str, int]] = []
    for op_index in range(cfg.ops_per_client):
        key = rng.randrange(1, cfg.key_space + 1)
        if op_index == 0:
            ops.append(("insert", key))
            continue
        draw = rng.random()
        if draw < cfg.insert_fraction:
            ops.append(("insert", key))
        elif draw < cfg.insert_fraction + cfg.update_fraction:
            ops.append(("update", key))
        else:
            ops.append(("search", key))
    return ops


def _chaos_lane(engine, client, lane_name: str, client_name: str, ops,
                completed: Dict[str, int], inserted: List[int],
                errors: List[Dict], halted: List[bool]) -> Generator:
    """One chaos lane: pull ops from the client's shared iterator.

    All lanes of a client drain one iterator, so ops run exactly once
    regardless of depth.  A :class:`~repro.errors.ReproError` stops the
    *whole client* — the erroring lane raises the shared ``halted``
    flag and sibling lanes stop pulling — matching the historical
    one-error-kills-the-client semantics at any depth.  Keys are
    counted committed only after the insert returns; errors record the
    lane name, so overlapping failures stay attributable.

    Shard-routed clients expose ``outage_delay(key)``; the lane parks
    out an injected outage window on the key's home MN instead of
    burning its retry budget, while lanes on healthy shards keep
    running (see :func:`repro.sched.client_lane`).
    """
    parker = getattr(client, "outage_delay", None)
    try:
        while not halted[0]:
            try:
                kind, key = next(ops)
            except StopIteration:
                return
            if parker is not None:
                delay = parker(key)
                if delay > 0.0:
                    yield engine.timeout(delay)
            if kind == "insert":
                yield from client.insert(key, key * 7 + 1)
                inserted.append(key)
            elif kind == "update":
                yield from client.update(key, key * 11 + 1)
            else:
                yield from client.search(key)
            completed[client_name] += 1
    except ReproError as exc:
        halted[0] = True
        errors.append({"client": lane_name, "error": type(exc).__name__,
                       "detail": str(exc)[:120]})


def _scheduled_migration(engine, index, shard: int, target_mn: int,
                         start: float) -> Generator:
    """Kick one online shard migration at its scheduled simulated time.

    A migration broken by injected faults (retry budget exhausted on
    the copy-out verbs) is abandoned cleanly: the shard-map flip only
    happens after a complete copy, so the source sub-tree remains
    authoritative and the invariant checker still passes.
    """
    if start > engine.now:
        yield engine.timeout(start - engine.now)
    try:
        yield from index.migrate_shard(shard, target_mn)
    except ReproError:
        pass


def run_chaos(cfg: ChaosConfig) -> ChaosResult:
    """Run one chaos campaign and check the tree afterwards."""
    cluster_config = ClusterConfig(
        num_cns=cfg.num_cns, num_mns=cfg.num_mns,
        clients_per_cn=cfg.clients_per_cn,
        lock_leases=cfg.lock_leases, lease_duration=cfg.lease_duration,
        sync_mode=cfg.sync_mode,
        pipeline_depth=cfg.pipeline_depth,
        num_shards=cfg.num_shards, cache_mode=cfg.cache_mode,
        seed=cfg.seed)
    retry = DEFAULT_RETRY_POLICY.scaled(max_attempts=cfg.max_attempts,
                                        deadline=cfg.deadline)
    family = get_family(cfg.index)
    if not family.supports_chaos:
        raise WorkloadError(
            f"index family {cfg.index!r} does not support the chaos "
            f"harness (supports_chaos=False)")
    with recording() as rec:
        cluster = Cluster(cluster_config)
        # Registry construction: the chime path builds the exact
        # ChimeConfig the historical inline dispatch built (sharded
        # clusters route through ShardedIndex identically), so existing
        # campaigns stay byte-identical; non-tree families simply ignore
        # the span/retry knobs their factories don't take.
        index = build_index(cfg.index, cluster, span=cfg.span,
                            chime_overrides={"retry": retry})
        pairs = dataset(cfg.initial_keys, key_space=cfg.key_space, seed=1)
        index.bulk_load(pairs)
        injector = cluster.install_faults(build_plan(cfg))
        for shard, target_mn, start in cfg.migrations:
            cluster.engine.process(
                _scheduled_migration(cluster.engine, index, shard,
                                     target_mn, start),
                name=f"chaos-migrate-s{shard}")
        completed: Dict[str, int] = {}
        inserted: List[int] = []
        errors: List[Dict] = []
        for client_index, ctx in enumerate(cluster.clients()):
            name = ctx.name
            completed[name] = 0
            ops = iter(_client_ops(cfg, client_index))
            halted = [False]
            for lane in range(cfg.pipeline_depth):
                lane_ctx = ctx if lane == 0 else LaneContext(ctx, lane)
                cluster.engine.process(
                    _chaos_lane(cluster.engine, index.client(lane_ctx),
                                lane_ctx.name, name, ops, completed,
                                inserted, errors, halted),
                    name=f"chaos-{lane_ctx.name}")
        cluster.run()
        expected = set(k for k, _ in pairs) | set(inserted)
        dead = sorted(injector.dead_cns)
        invariants = check_index_invariants(index, expected_keys=expected,
                                            dead_cns=dead)
        stranded = stranded_tickets(index, dead)
        metrics = rec.notes()
    errors.sort(key=lambda e: e["client"])
    return ChaosResult(
        config=asdict(cfg),
        sim_time_us=sim_us(cluster.engine.now),
        completed=completed,
        errors=errors,
        inserted=len(set(inserted)),
        dead_cns=dead,
        fault_counters=dict(sorted(injector.counters.items())),
        metrics=metrics,
        invariants=invariants,
        parked=dict(sorted(injector.parked.items())),
        stranded_tickets=stranded,
    )
