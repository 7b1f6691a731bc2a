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
import json
import pathlib

import pytest

import repro
from repro.bench.runner import build_index, load_index
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.faults import FaultPlan
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
    streams = [context.stream(client_index, OPS)
               for client_index in range(cluster.total_clients)]
    run = launch_clients(cluster, index, streams, OPS // 10,
                         depth=config.pipeline_depth,
                         commit=context.commit_insert)
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
}

#: run id -> (events_processed, SHA-256 of the event log) of the
#: production engine: a family id is its default-configuration run in
#: :class:`TestCalendarGoldenEquality`, the rest are :data:`CONFIGS`.
#: Recorded on the calendar-queue engine, before the one-heap engine
#: replaced it; an equal oracle alone cannot catch a change to the
#: loop both engines share.  ``chime-learned`` was re-recorded when the
#: family began to scan: it runs YCSB A since, not C.  The chime,
#: chime-indirect and chime-learned rows and every CONFIGS row were
#: re-recorded when hopscotch bitmaps shrank to ⌈H/8⌉ bytes (fewer bytes
#: per leaf READ move every NIC completion time; event counts hold).
#: ``smart-rcu`` was re-recorded when an RCU update began to WRITE a
#: tombstone over the leaf it replaced (3338 -> 3494 events), and
#: ``marlin`` when its update began to take the leaf lock (2276 -> 2680).
#: Read delegation joining only same-instant reads re-recorded every row
#: but ``flexkv``, ``outback``, ``leases-crash`` and ``pessimistic``.
EVENT_LOGS = {
    "chime": (2016, "a8f5c388520876aaf9ec775ee7841fdc"
                    "286a3b6c98090f3248ac43092c80b2d3"),
    "chime-indirect": (2828, "e4e4d4193cd0cb7ba87dc5e22235cb80"
                             "6504654883a3bf21061af8a6f9efcb19"),
    "chime-learned": (2860, "1185f3fa17c8bbfd4ea6fbbe1e7f183b"
                            "91e5f383028adc50767ff007109e4059"),
    "flexkv": (1032, "90564ec343c7fd3ae8015cfff14228d5"
                     "0d90ee215a77af450b09f7ca0269701a"),
    "marlin": (2707, "11ec30933844fb5ff1c1ba5f0f98cfbc"
                     "5dab50ade68549207cfcf2ad2f61e7b8"),
    "outback": (968, "3af98019186f77b32ce9c86607b41036"
                     "181cfebc09304df56cf598de47920606"),
    "rolex": (3452, "21e86467f24bb230cf24684aa46635a7"
                    "afbfb0cd82ef9e06793c74140f5bff0b"),
    "rolex-indirect": (4246, "aad8d03ec57dfa6d0833fd6191f9020d"
                             "ab545cef850b90bbe180855414e4bce2"),
    "sherman": (1964, "b03c584256b18faeb7c1f1b42d7eb0e6"
                      "3fc2e32f57dde0689ac763715f0bccb5"),
    "smart": (2621, "f818059796730ef97e064e4e16030155"
                    "fec194556856f3c8adb6ecafb6ce2aab"),
    "smart-opt": (2621, "f818059796730ef97e064e4e16030155"
                        "fec194556856f3c8adb6ecafb6ce2aab"),
    "smart-rcu": (3503, "47d27d39d7fbf5b8837e8849132957f5"
                        "39d68bb0e5f9d640bc9cb3c497d76756"),
    "adaptive": (8098, "4023bb0a43b4b75a1970ebddeabfbc9e"
                       "95a64544b02cd0e8d198968e62bfbb93"),
    "leases-crash": (1778, "7eb3955e24b5aa4c0fb9c986005f2d8e"
                           "0e83ff75896b7e318e8446805f12baac"),
    "pessimistic": (2834, "481dee68bd43873ad03dc63130d8c87c"
                          "574cd86a7ea337ccd308909695c0ca32"),
    "write-scaleout": (2154, "dc50509cd80f5edc49d527e8d437855b"
                             "5a82a8ec3d0274dd982609471343d3bb"),
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


#: Sharded runs the rows above do not reach: run id -> pinned
#: observables.  ``sharded-scan`` is chime YCSB-E over four shards on
#: four MNs, whose scans continue shard by shard; ``sharded-chaos`` is a
#: chaos campaign with one MN's outage window, pinned as (events, event
#: log digest, SHA-256 of ``ChaosResult.to_dict()`` minus ``config``).
#: Recorded before shards became static (no migration, no rebalancer,
#: one cache mode); ``sharded-chaos`` re-recorded when a re-issue after
#: a lost verb began to count a retry and back off (8205 -> 8204 events),
#: and both when hopscotch bitmaps shrank to ⌈H/8⌉ bytes (8204 -> 8203);
#: ``sharded-scan`` again when a scan's first leaf began to read only the
#: blocks its candidate keys can live in (3731 -> 3783), and only the
#: entries of those candidates' neighbourhoods (3783 -> 3843), and when
#: a scan stopped fanning out to every later shard and continued into
#: the next shard only while its result was short (3843 -> 2146), and
#: when a scan's last leaf began to be read for its candidates alone
#: (2146 -> 2142).
#: ``sharded-chaos``'s report digest was re-recorded when the report
#: dropped its ``inserted`` count (the history checker judges committed
#: keys); its events and event log hold.  ``default-chaos`` is the
#: unsharded default campaign, ``run_chaos()``, pinned the same way;
#: both were recorded before ``run_chaos`` took a ``ClusterConfig`` and a
#: ``FaultPlan``, which moved neither.
SHARDED_LOGS = {
    "sharded-scan": (2142, "8fb65b8f55fadd3d49e62ad2b1dc18f1"
                           "a21d84b50d156be93944d77cf67f4248"),
    "sharded-chaos": (8203, "6d5c1a18c0e9deaa595d8e7b83551889"
                            "6b2f204aa34923c66b68d520d81ad8c0",
                      "98e022b43782fcdf21970d3b2897f440"
                      "28b4263351cf5b6eedca7fbb3f5a7785"),
    "default-chaos": (4380, "570e191db2ecb8333686080138dc794b"
                            "ccfee65b25c0b260b99b311e960d09b8",
                      "166cea919f9c1600c92052c2de299fff"
                      "ae96b88530a2a8aaae1ad95b024e2bc1"),
}

SHARDED_SCAN = dict(num_mns=4, num_shards=4, pipeline_depth=2)


class TestShardedPinned:
    def test_sharded_scan_matches_heap_and_is_pinned(self, monkeypatch):
        heap, production = [
            _golden_run("chime", "E", monkeypatch, heap_oracle=oracle,
                        **SHARDED_SCAN)
            for oracle in (True, False)]
        for key in ("log", "events", "now", "ops", "latencies", "traffic"):
            assert production[key] == heap[key], key
        assert (production["events"], _log_digest(production["log"])) == \
            SHARDED_LOGS["sharded-scan"]

    def test_sharded_chaos_is_pinned(self, monkeypatch):
        from repro.faults import CHAOS_CLUSTER, FaultPlan

        assert _chaos_pin(
            monkeypatch, CHAOS_CLUSTER.scaled(num_mns=4, num_shards=4),
            FaultPlan(seed=7).outage(2, 30e-6, 120e-6),
        ) == SHARDED_LOGS["sharded-chaos"]

    def test_default_chaos_is_pinned(self, monkeypatch):
        assert _chaos_pin(monkeypatch) == SHARDED_LOGS["default-chaos"]


def _chaos_pin(monkeypatch, *args):
    """``run_chaos(*args)`` as (events, event-log digest, SHA-256 of its
    report without ``config``)."""
    from repro.faults import chaos

    engines = []
    build = chaos.Cluster

    def logged_cluster(config):
        cluster = build(config)
        cluster.engine.event_log = []
        engines.append(cluster.engine)
        return cluster

    monkeypatch.setattr(chaos, "Cluster", logged_cluster)
    result = chaos.run_chaos(*args)
    assert result.ok, result.invariants.violations
    body = result.to_dict()
    del body["config"]
    body_digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    (engine,) = engines
    return engine.events_processed, _log_digest(engine.event_log), body_digest


#: Lock shapes the rows above do not reach: run id -> (family,
#: ClusterConfig fields, ChimeConfig overrides, events_processed,
#: SHA-256 of the event log), all YCSB-A.  The ticket queue and the
#: adaptive switch over four shards on four MNs at depth 2, with and
#: without leases; the adaptive switch with CXL atomics (the lock
#: word's rest comes from a READ after the lock-bit CAS, 7 leaves flip
#: pessimistic); Sherman's queue with leases at 8 clients per CN (78
#: delegation handoffs).  Recorded before every lock-word family took
#: one lock path; the chime rows re-recorded when hopscotch bitmaps
#: shrank to ⌈H/8⌉ bytes (sharded-adaptive 2017 -> 2016 events,
#: adaptive-cxl 9840 -> 9802), and four rows when read delegation began
#: to join only same-instant reads (the two pessimistic shards hold).
_SHARDED_LOCKS = dict(num_mns=4, num_shards=4, pipeline_depth=2)
LOCK_SHAPES = {
    "sharded-pessimistic": (
        "chime", dict(_SHARDED_LOCKS, sync_mode="pessimistic"), None,
        2793, "59ff517d7d659507445a0955099e2f14"
              "728485717f764a48883aeaa123ca3084"),
    "sharded-pessimistic-leases": (
        "chime", dict(_SHARDED_LOCKS, sync_mode="pessimistic",
                      lock_leases=True), None,
        2879, "e686cbcfb246c9b4fe1fec2ece3b7f4b"
              "77cf1fe29416159958b253de47040128"),
    "sharded-adaptive": (
        "chime", dict(_SHARDED_LOCKS, sync_mode="adaptive"), None,
        2026, "74703d79b60a0dff9a6a60f25676862e"
              "bc0393ac91b264aa61bf0cdccaebdd17"),
    "sharded-adaptive-leases": (
        "chime", dict(_SHARDED_LOCKS, sync_mode="adaptive",
                      lock_leases=True), None,
        2676, "4353dd821200614105a0a18488645398"
              "73186d1f520e7ca3cc903ac57837834a"),
    "adaptive-cxl": (
        "chime", dict(sync_mode="adaptive", clients_per_cn=8,
                      pipeline_depth=4), {"cxl_atomics": True},
        9982, "4e284928593582bc60c7c104fb61ce38"
              "121668e8507a00a45dc2161407af6b9f"),
    "sherman-pessimistic-leases": (
        "sherman", dict(sync_mode="pessimistic", lock_leases=True,
                        clients_per_cn=8), None,
        10301, "c968b516d5fbcc8a179b0ed2e1c8ebb9"
               "bcc76505564130ccb26704f833de1e5f"),
}


class TestLockShapesPinned:
    @pytest.mark.parametrize("shape", sorted(LOCK_SHAPES))
    def test_lock_shape_is_pinned(self, shape, monkeypatch):
        index_name, fields, overrides, events, digest = LOCK_SHAPES[shape]
        run = _golden_run(index_name, "A", monkeypatch, heap_oracle=False,
                          chime_overrides=overrides, **fields)
        assert (run["events"], _log_digest(run["log"])) == (events, digest)


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
