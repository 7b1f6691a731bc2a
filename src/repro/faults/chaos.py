"""The chaos harness: seeded fault campaigns against a live index.

:func:`run_chaos` builds a small cluster from a
:class:`~repro.config.ClusterConfig` (by default :data:`CHAOS_CLUSTER`),
bulk-loads the named index family (CHIME by default; any registry
family), installs a :class:`~repro.faults.plan.FaultPlan` (by default:
crash one client's CN right before its first write verb — for a
lock-word family, between the lock-acquiring CAS and the unlocking
WRITE), drives a pre-drawn mixed workload from every client through
:func:`repro.sched.launch_clients` — the lanes every benchmark point
runs on, where an op's :class:`~repro.errors.ReproError` stops its
client — and then audits the index with
:func:`~repro.faults.invariants.check_index_invariants` and judges every
answer the run gave, and its final state, with
:func:`~repro.faults.history.check_history`.

Everything — workload choices, fault draws, simulated time — is seeded,
so a cluster, a plan and the four run values map to exactly one
:class:`ChaosResult`; running twice and comparing
``json.dumps(result.to_dict(), sort_keys=True)`` is the determinism
regression test.

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
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.node_layout import sim_us
from repro.faults.history import check_history, history
from repro.faults.invariants import InvariantReport, check_index_invariants
from repro.faults.plan import FaultPlan
from repro.obs import recording
from repro.registry import build_index
from repro.retry import RetryPolicy
from repro.sched import launch_clients
from repro.workloads.ycsb import INSERT, SEARCH, UPDATE, Op, dataset

__all__ = ["CHAOS_CLUSTER", "ChaosResult", "run_chaos"]

#: Chaos's cluster: 2 CNs x 3 clients on one MN, lock leases on, seed 7
#: (the campaign seed: it draws the ops and, in the default plan, the
#: faults).
CHAOS_CLUSTER = ClusterConfig(num_cns=2, clients_per_cn=3, lock_leases=True,
                              seed=7)
#: Node span of the index under test (families whose factories take no
#: span ignore it).
SPAN = 64
#: Op mix: the share of inserts, then of updates; the rest are searches.
INSERT_FRACTION = 0.5
UPDATE_FRACTION = 0.25


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


def _client_ops(seed: int, count: int, key_space: int,
                client_index: int) -> List[Op]:
    """Pre-draw one client's op list.

    The mix is drawn from a per-client RNG seeded from (campaign seed,
    client index) only — no globals, no hashing — so the stream is
    stable across runs and interpreter invocations; no draw depends on
    an answer.  The first op is always an insert, guaranteeing the
    default crash spec (die before the first write verb) catches its
    victim holding a leaf lock.
    """
    rng = random.Random(seed * 1_000_003 + 7919 * client_index)
    ops: List[Op] = []
    for op_index in range(count):
        key = rng.randrange(1, key_space + 1)
        if op_index == 0:
            ops.append(Op(INSERT, key, key * 7 + 1))
            continue
        draw = rng.random()
        if draw < INSERT_FRACTION:
            ops.append(Op(INSERT, key, key * 7 + 1))
        elif draw < INSERT_FRACTION + UPDATE_FRACTION:
            ops.append(Op(UPDATE, key, key * 11 + 1))
        else:
            ops.append(Op(SEARCH, key))
    return ops


def run_chaos(config: ClusterConfig = CHAOS_CLUSTER,
              plan: Optional[FaultPlan] = None, index: str = "chime",
              ops_per_client: int = 40, keys: int = 400,
              max_attempts: int = 256) -> ChaosResult:
    """Run one chaos campaign, then check the index and the history.

    *plan* defaults to crashing cn0/c0's CN right before its first
    write verb, seeded like *config*.  *keys* are bulk-loaded, sampled
    sparsely from [1, 2 * keys], so client ops spread across many
    leaves.
    """
    if plan is None:
        plan = FaultPlan(seed=config.seed).crash("cn0/c0")
    with recording() as rec:
        cluster = Cluster(config)
        target = build_index(index, cluster, span=SPAN)
        target.retry_policy = RetryPolicy(max_attempts)
        pairs = dataset(keys, key_space=2 * keys, seed=1)
        target.bulk_load(pairs)
        injector = cluster.install_faults(plan)
        streams = [_client_ops(config.seed, ops_per_client, 2 * keys,
                               client_index)
                   for client_index in range(cluster.total_clients)]
        run = launch_clients(cluster, target, streams, warmup=0,
                             depth=config.pipeline_depth)
        cluster.run()
        dead = sorted(injector.dead_cns)
        invariants = check_index_invariants(target, dead_cns=dead)
        invariants.violations += check_history(
            history(rec), pairs, target.collect_items())
        stranded = cluster.sync_state.stranded(dead)
        metrics = rec.notes()
    errors = [{"client": lane, "error": type(exc).__name__,
               "detail": str(exc)[:120]}
              for lane, exc in sorted(run.errors, key=lambda e: e[0])]
    return ChaosResult(
        config={"cluster": asdict(config), "plan": plan.to_dict(),
                "index": index, "ops_per_client": ops_per_client,
                "keys": keys, "max_attempts": max_attempts},
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
