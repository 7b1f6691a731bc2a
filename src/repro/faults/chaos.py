"""The chaos harness: seeded fault campaigns against a live index.

:func:`run_chaos` builds a small cluster, bulk-loads the configured
index family (CHIME by default; any registry family), installs a
:class:`~repro.faults.plan.FaultPlan` derived from a
:class:`ChaosConfig` (by default: crash one client's CN right before its
first write verb — for a lock-word family, between the lock-acquiring
CAS and the unlocking WRITE), drives a pre-drawn mixed workload from
every client through :func:`repro.sched.launch_clients` — the lanes
every benchmark point runs on, where an op's
:class:`~repro.errors.ReproError` stops its client — and then audits
the index with
:func:`~repro.faults.invariants.check_index_invariants` and judges every
answer the run gave, and its final state, with
:func:`~repro.faults.history.check_history`.

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
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.node_layout import sim_us
from repro.faults.history import check_history, history
from repro.faults.invariants import InvariantReport, check_index_invariants
from repro.faults.plan import FaultPlan
from repro.obs import recording
from repro.registry import build_index
from repro.retry import DEFAULT_RETRY_POLICY
from repro.sched import launch_clients
from repro.workloads.ycsb import INSERT, SEARCH, UPDATE, Op, dataset

__all__ = ["ChaosConfig", "ChaosResult", "build_plan", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign, fully determined by its fields."""

    seed: int = 7
    #: Registry legend name of the index under test; any family runs.
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


@dataclass
class ChaosResult:
    """Everything a chaos run produced, JSON-stable for diffing."""

    config: Dict
    sim_time_us: int
    completed: Dict[str, int]
    errors: List[Dict]
    dead_cns: List[int]
    fault_counters: Dict[str, int]
    metrics: Dict[str, float]
    invariants: InvariantReport = field(default_factory=InvariantReport)
    #: Coroutines parked at a verb by their CN's death, per qp owner.
    parked: Dict[str, int] = field(default_factory=dict)
    #: Queue tickets left outstanding by parked waiters (pessimistic/
    #: adaptive sync only; see :meth:`repro.core.adaptive.SyncState.stranded`).
    stranded_tickets: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.invariants.ok and not self.errors

    def to_dict(self) -> Dict:
        return {**asdict(self), "invariants": self.invariants.to_dict()}


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


def _client_ops(cfg: ChaosConfig, client_index: int) -> List[Op]:
    """Pre-draw one client's op list.

    The mix is drawn from a per-client RNG seeded from (campaign seed,
    client index) only — no globals, no hashing — so the stream is
    stable across runs and interpreter invocations; no draw depends on
    an answer.  The first op is always an insert, guaranteeing the
    default crash spec (die before the first write verb) catches its
    victim holding a leaf lock.
    """
    rng = random.Random(cfg.seed * 1_000_003 + 7919 * client_index)
    ops: List[Op] = []
    for op_index in range(cfg.ops_per_client):
        key = rng.randrange(1, cfg.key_space + 1)
        if op_index == 0:
            ops.append(Op(INSERT, key, key * 7 + 1))
            continue
        draw = rng.random()
        if draw < cfg.insert_fraction:
            ops.append(Op(INSERT, key, key * 7 + 1))
        elif draw < cfg.insert_fraction + cfg.update_fraction:
            ops.append(Op(UPDATE, key, key * 11 + 1))
        else:
            ops.append(Op(SEARCH, key))
    return ops


def run_chaos(cfg: ChaosConfig) -> ChaosResult:
    """Run one chaos campaign, then check the index and the history."""
    cluster_config = ClusterConfig(
        num_cns=cfg.num_cns, num_mns=cfg.num_mns,
        clients_per_cn=cfg.clients_per_cn,
        lock_leases=cfg.lock_leases, lease_duration=cfg.lease_duration,
        sync_mode=cfg.sync_mode,
        pipeline_depth=cfg.pipeline_depth,
        num_shards=cfg.num_shards, seed=cfg.seed)
    retry = DEFAULT_RETRY_POLICY.scaled(max_attempts=cfg.max_attempts,
                                        deadline=cfg.deadline)
    with recording() as rec:
        cluster = Cluster(cluster_config)
        # Families whose factories take no span ignore it.
        index = build_index(cfg.index, cluster, span=cfg.span)
        index.retry_policy = retry
        pairs = dataset(cfg.initial_keys, key_space=cfg.key_space, seed=1)
        index.bulk_load(pairs)
        injector = cluster.install_faults(build_plan(cfg))
        streams = [_client_ops(cfg, client_index)
                   for client_index in range(cluster.total_clients)]
        run = launch_clients(cluster, index, streams, warmup=0,
                             depth=cfg.pipeline_depth)
        cluster.run()
        dead = sorted(injector.dead_cns)
        invariants = check_index_invariants(index, dead_cns=dead)
        invariants.violations += check_history(
            history(rec), pairs, index.collect_items())
        stranded = cluster.sync_state.stranded(dead)
        metrics = rec.notes()
    errors = [{"client": lane, "error": type(exc).__name__,
               "detail": str(exc)[:120]}
              for lane, exc in sorted(run.errors, key=lambda e: e[0])]
    return ChaosResult(
        config=asdict(cfg),
        sim_time_us=sim_us(cluster.engine.now),
        completed=run.completed,
        errors=errors,
        dead_cns=dead,
        fault_counters=dict(sorted(injector.counters.items())),
        metrics=metrics,
        invariants=invariants,
        parked=dict(sorted(injector.parked.items())),
        stranded_tickets=stranded,
    )
