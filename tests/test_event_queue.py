"""Golden tests for the event loop: one heap plus a same-instant lane.

The load-bearing guarantee of the lane: the production engine (a binary
heap for the future, a FIFO lane for the current instant) and the
lane-less :class:`~tests.oracles.HeapQueue` oracle produce
**byte-identical event sequences** — not just equal counts — for every
registry family and for cluster shapes beyond the default
(:data:`CONFIGS`).  The golden tests run identically seeded clusters on
both (the oracle injected by object) with the engine's ``event_log``
enabled and compare the full ``(time, type)`` sequences, plus every
observable metric; :data:`EVENT_LOGS` pins each production run's event
count and log digest, which holds the loop both share to the engine it
replaced.  ``tests/test_sim_engine.py`` races the two on random
programs.
"""

import ast
import hashlib
import pathlib

import pytest

import repro
from repro.bench.runner import build_index, load_index
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.faults import FaultPlan
from repro.rdma import NicSpec
from repro.registry import family_names, get_family
from repro.sched import launch_clients
from repro.sim import Engine
from repro.workloads.ycsb import WORKLOADS, WorkloadContext, dataset
from tests.oracles import HeapQueue

NUM_KEYS = 300
OPS = 30
SEED = 11


def _golden_run(index_name: str, workload: str, monkeypatch,
                heap_oracle: bool, chime_overrides=None, faults=None,
                **cluster_fields):
    """One fully seeded run; returns observables.

    The production path (``Cluster`` -> ``Engine()``) runs untouched;
    with *heap_oracle* the ``Engine`` that ``Cluster`` constructs is
    swapped for one draining a :class:`HeapQueue`.  *cluster_fields*
    override :class:`ClusterConfig` defaults and *chime_overrides*
    :class:`ChimeConfig` ones (``tests/test_golden_families.py`` pins
    non-default knobs with the same recipe); *faults*, a
    :class:`FaultPlan`, is installed after the bulk load.
    """
    config = ClusterConfig(**{"num_cns": 2, "clients_per_cn": 2,
                              "seed": SEED, **cluster_fields})
    with monkeypatch.context() as patch:
        if heap_oracle:
            patch.setattr("repro.cluster.cluster.Engine",
                          lambda: Engine(queue=HeapQueue()))
        cluster = Cluster(config)
    assert (cluster.engine._lane is None) == heap_oracle
    index = build_index(index_name, cluster, chime_overrides=chime_overrides)
    pairs = dataset(NUM_KEYS, key_space=0, seed=SEED)
    spec = WORKLOADS[workload]
    context = WorkloadContext(spec, [k for k, _ in pairs], seed=SEED,
                              theta=0.99)
    context.expected_insert_budget = 64
    load_index(index, pairs, workload, context)
    injector = None if faults is None else cluster.install_faults(faults)
    cluster.engine.event_log = log = []
    run = launch_clients(cluster, index, context, OPS, OPS // 10,
                         depth=config.pipeline_depth)
    cluster.run()
    return {
        "log": log,
        "events": cluster.engine.events_processed,
        "now": cluster.engine.now,
        "ops": run.ops_completed,
        "latencies": run.latencies,
        "traffic": cluster.traffic_totals(),
        "parked": {} if injector is None else dict(injector.parked),
    }


def _log_digest(log) -> str:
    """SHA-256 of an event log's ``repr``: every ``(time, type)`` pair."""
    return hashlib.sha256(repr(log).encode()).hexdigest()


class TestCalendarGoldenEquality:
    @pytest.mark.parametrize("index_name", sorted(family_names()))
    def test_calendar_matches_heap_event_sequence(self, index_name,
                                                  monkeypatch):
        """The production engine (heap + same-instant lane; the id is
        from when its heap was a calendar queue) against the lane-less
        one-heap oracle, on every family's default configuration."""
        # Point-only families (no range scans) run the read-only mix.
        workload = "A" if get_family(index_name).supports_scan else "C"
        heap = _golden_run(index_name, workload, monkeypatch,
                           heap_oracle=True)
        production = _golden_run(index_name, workload, monkeypatch,
                                 heap_oracle=False)
        assert heap["log"]
        assert production["log"] == heap["log"]
        assert production["events"] == heap["events"]
        assert production["now"] == heap["now"]
        assert production["ops"] == heap["ops"]
        assert production["latencies"] == heap["latencies"]
        assert production["traffic"] == heap["traffic"]


def _crash_cn0():
    """cn0/c0 dies before its first WRITE — inside a locked update, so
    the lock stays held — and every lane of cn0 parks at its next verb."""
    return FaultPlan(seed=SEED).crash("cn0/c0", kinds=("write", "write_batch"))


#: chime YCSB-A on cluster shapes the default configuration does not
#: reach: run id -> (ClusterConfig fields, FaultPlan factory or None).
CONFIGS = {
    # perfbench's write-scaleout: four MNs, four shards, four lanes each.
    "write-scaleout": (dict(num_mns=4, num_shards=4, pipeline_depth=4), None),
    "pessimistic": (dict(sync_mode="pessimistic"), None),
    # Enough lanes on the hottest leaves that some go pessimistic (the
    # same shape runs 7,529 events optimistic, 7,945 here).
    "adaptive": (dict(sync_mode="adaptive", clients_per_cn=8,
                      pipeline_depth=4), None),
    # Survivors steal the dead client's lock once its lease runs out.
    "leases-crash": (dict(lock_leases=True), _crash_cn0),
    "cn-nic": (dict(cn_nic=NicSpec()), None),
}

#: run id -> (events_processed, SHA-256 of the event log) of the
#: production engine: a family id is its default-configuration run in
#: :class:`TestCalendarGoldenEquality`, the rest are :data:`CONFIGS`.
#: Recorded on the calendar-queue engine, before the one-heap engine
#: replaced it; an equal oracle alone cannot catch a change to the
#: loop both engines share.
EVENT_LOGS = {
    "chime": (2014, "6bae17812deb15f76e38d20521f3a1b5"
                    "ab758852fe08bdd142b566bcc48d2fc8"),
    "chime-indirect": (2811, "08537d60889ace405a481490ff80f12a"
                             "a8c498ff0fc4807c6b0a2260bf2f010d"),
    "chime-learned": (1610, "d789fce52355b4dbe4f3ee80771eb7fb"
                            "dd738849e0644cb7f37993590e1a9932"),
    "flexkv": (1032, "90564ec343c7fd3ae8015cfff14228d5"
                     "0d90ee215a77af450b09f7ca0269701a"),
    "marlin": (2276, "230edcebc9b99bafe2cac142ef26707e"
                     "a4497549544541be97a8c67aafb0e80d"),
    "outback": (968, "3af98019186f77b32ce9c86607b41036"
                     "181cfebc09304df56cf598de47920606"),
    "rolex": (3431, "63976bb4d7d212072c6ed7524dab0742"
                    "1e4770665c2b16bf66589892106b1ec9"),
    "rolex-indirect": (4208, "e5c5e479f3123347ac5cd2fd46fd8087"
                             "00609f781fa874accc19373d7426ec23"),
    "sherman": (1972, "e00119bee1e59a42c20a64bd924a6b17"
                      "3ccd7159c0e8c55e2e264b9e1c526ce4"),
    "smart": (2612, "648dacd51cc8ab39c03f5aff6a066aaa"
                    "88c7517efc3e74dbc7e26835cb4d0968"),
    "smart-opt": (2612, "648dacd51cc8ab39c03f5aff6a066aaa"
                        "88c7517efc3e74dbc7e26835cb4d0968"),
    "smart-rcu": (3338, "da755cd58563eda9c3ac08ff4b950045"
                        "7791fe7a1d1d8b91beebdad3e19ba326"),
    "adaptive": (7945, "f289295335c855f23dfa1bba2b938d7c"
                       "9dce4dbb2b68adebc308d2219e148c03"),
    "cn-nic": (2998, "200a4a50e565f8986f0687e415f1c888"
                     "43eb88a4a19dba70b71c62aeb41fdc18"),
    "leases-crash": (1778, "dc04dc611b8843b2bc418adc0055ad2f"
                           "dba8d9d84853a890d9397d689dc1d424"),
    "pessimistic": (2834, "31bc7a2ccab149a0cd71fff960b148bc"
                          "9f28ae0a0ff23b5b742d741df6d3dc85"),
    "write-scaleout": (2136, "675458f42b8f1be596b261e347a2bdde"
                             "3ef4bb447e4dc8c0ffcb0577e59d5719"),
}


def _workload(index_name: str) -> str:
    # Point-only families (no range scans) run the read-only mix.
    return "A" if get_family(index_name).supports_scan else "C"


class TestEventLogsPinned:
    @pytest.mark.parametrize("index_name", sorted(family_names()))
    def test_family_event_log_is_pinned(self, index_name, monkeypatch):
        run = _golden_run(index_name, _workload(index_name), monkeypatch,
                          heap_oracle=False)
        assert (run["events"], _log_digest(run["log"])) == \
            EVENT_LOGS[index_name]

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_config_matches_heap_and_is_pinned(self, config, monkeypatch):
        fields, faults = CONFIGS[config]
        runs = [_golden_run("chime", "A", monkeypatch, heap_oracle=oracle,
                            faults=None if faults is None else faults(),
                            **fields)
                for oracle in (True, False)]
        heap, production = runs
        assert heap["log"]
        for key in ("log", "events", "now", "ops", "latencies", "traffic",
                    "parked"):
            assert production[key] == heap[key], key
        assert (production["events"], _log_digest(production["log"])) == \
            EVENT_LOGS[config]
        if faults is not None:
            # Both of cn0's clients parked; cn1's finished their ops.
            assert sorted(production["parked"]) == ["cn0/c0", "cn0/c1"]
            assert production["ops"] < 4 * OPS


#: What the one-heap engine deleted: the calendar queue, the interrupt
#: and first-of paths, timer tombstones, and the unused mailbox.
DELETED = {"CalendarQueue", "AnyOf", "Interrupted", "Store", "interrupt",
           "any_of", "pop_due", "cancel", "_cancelled"}


def _deleted_names_used(package: pathlib.Path):
    """``(file, line, name)`` of every definition, import, attribute,
    name or string constant (a ``__slots__`` entry) in :data:`DELETED`."""
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant):
                names = [node.value]
            else:
                continue
            for name in names:
                if isinstance(name, str) and name in DELETED:
                    yield path.name, node.lineno, name


def test_no_module_reaches_for_the_deleted_engine_names():
    """No ``src/repro`` module defines, imports or touches the calendar
    queue, ``interrupt`` / ``Interrupted``, ``any_of`` / ``AnyOf``,
    ``cancel`` / ``_cancelled`` tombstones or ``Store``."""
    package = pathlib.Path(repro.__file__).parent
    assert not list(_deleted_names_used(package))
