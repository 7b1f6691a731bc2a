"""Tests for where an operation runs and what it costs on the wire.

Covers FlexKV's placement policy, the registry capability flags, every
family's point operations as one client issues them on a warm cache
(Table 1 by observation), the MPH routing structure Outback builds on,
the functional contract of the two hash-table families (Outback,
FlexKV) including the CAS endianness regression, and the AST guards
that keep family plumbing written once.
"""

import ast
import pathlib
import re

import pytest

import repro
from repro import registry
from repro.baselines.flexkv import (
    PLACEMENT_CN,
    PLACEMENT_MN,
    CachePressurePlacement,
    FlexKVIndex,
)
from repro.baselines.outback import OutbackIndex
from repro.cluster import Cluster
from repro.config import ClusterConfig, KNOWN_ENV_VARS, unknown_env_vars
from repro.errors import ConfigError, SimulationError, WorkloadError
from repro.faults.invariants import check_index_invariants
from repro.hashing.mph import MinimalPerfectHash
from repro.rdma.trace import QpTracer
from repro.workloads.ycsb import dataset
from tests import oracles


def make_cluster(**overrides):
    defaults = dict(num_cns=1, num_mns=1, clients_per_cn=4,
                    cache_bytes=1 << 24, region_bytes=1 << 25)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def drive(cluster, *generators):
    results = [None] * len(generators)

    def wrap(i, gen):
        def runner():
            results[i] = yield from gen
        return runner()

    for i, gen in enumerate(generators):
        cluster.engine.process(wrap(i, gen))
    cluster.run()
    return results


PAIRS = [(k, k * 10) for k in range(1, 1001)]


# ---------------------------------------------------------------------------
# FlexKV's placement policy
# ---------------------------------------------------------------------------


class TestStaticPlacement:
    """No threshold: every partition stays where the policy starts."""

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError):
            CachePressurePlacement("gpu")

    def test_fixed_for_every_partition(self):
        policy = CachePressurePlacement(PLACEMENT_MN)
        assert policy.placement_for(0) == PLACEMENT_MN
        assert policy.placement_for(17) == PLACEMENT_MN
        policy.note_miss(0)
        policy.note_miss(0)
        assert policy.switches == 0
        assert policy.table() == {}


class TestCachePressurePlacement:
    def test_defaults_to_cn(self):
        policy = CachePressurePlacement(threshold=3)
        assert policy.placement_for(2) == PLACEMENT_CN

    def test_flips_after_threshold_consecutive_misses(self):
        policy = CachePressurePlacement(threshold=3)
        for _ in range(2):
            policy.note_miss(1)
        assert policy.placement_for(1) == PLACEMENT_CN
        policy.note_miss(1)
        assert policy.placement_for(1) == PLACEMENT_MN
        assert policy.switches == 1
        assert policy.table() == {1: PLACEMENT_MN}

    def test_hit_resets_the_miss_streak(self):
        policy = CachePressurePlacement(threshold=3)
        policy.note_miss(0)
        policy.note_miss(0)
        policy.note_hit(0)
        policy.note_miss(0)
        policy.note_miss(0)
        assert policy.placement_for(0) == PLACEMENT_CN
        assert policy.switches == 0

    def test_misses_are_per_partition(self):
        policy = CachePressurePlacement(threshold=2)
        policy.note_miss(0)
        policy.note_miss(1)
        assert policy.switches == 0
        policy.note_miss(0)
        assert policy.placement_for(0) == PLACEMENT_MN
        assert policy.placement_for(1) == PLACEMENT_CN


# ---------------------------------------------------------------------------
# Registry capability flags (parametrized consistency contract)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", registry.families(),
                         ids=registry.family_names())
class TestCapabilityFlagConsistency:
    """Every registered family's flags must describe a coherent design."""

    def test_factory_present(self, family):
        assert family.factory is not None

    def test_default_placement_is_known(self, family):
        assert family.default_placement in ("cn", "mn", "hash")

    def test_one_rtt_point_excludes_scans(self, family):
        # A one-RTT hash-routed point lookup has no ordered structure
        # to range-scan over.
        if family.one_rtt_point:
            assert not family.supports_scan, family.name

    def test_one_rtt_point_is_hash_routed(self, family):
        if family.one_rtt_point:
            assert family.default_placement == "hash", family.name

    def test_dynamic_placement_requires_offload(self, family):
        # A placement policy can only flip CN->MN if the family has an
        # MN-side execution path to flip to.
        if family.dynamic_placement:
            assert family.mn_offload, family.name

    def test_model_routed_families_are_not_shardable(self, family):
        if family.model_routed:
            assert not family.shardable, family.name


# ---------------------------------------------------------------------------
# Fast paths, by observation (the paper's Table 1, for every family)
# ---------------------------------------------------------------------------


#: family -> (search, update, insert, delete), each ``(round trips,
#: verbs)`` as one client issues them on a warm cache; a family without
#: a delete (Outback, FlexKV) has three columns.  An ``rpc`` in the
#: middle of a write is the chunk allocator's first refill.
FAST_PATHS = {
    "chime": ((1, "read"),
              (3, "masked_cas read write_batch"),
              (3, "masked_cas read_batch write_batch"),
              (3, "masked_cas read write_batch")),
    "chime-indirect": ((2, "read read"),
                       (5, "masked_cas read rpc write write_batch"),
                       (4, "masked_cas read_batch write write_batch"),
                       (3, "masked_cas read write_batch")),
    "sherman": ((1, "read"),
                (3, "masked_cas read write_batch"),
                (3, "masked_cas read write_batch"),
                (3, "masked_cas read write_batch")),
    "marlin": ((2, "read read"),
               (4, "read rpc write cas"),
               (4, "write masked_cas read write_batch"),
               (3, "masked_cas read write_batch")),
    "smart": ((1, "read"),
              (5, "read read read read write"),
              (6, "read read read rpc write cas"),
              (5, "read read read read cas")),
    "smart-opt": ((1, "read"),
                  (5, "read read read read write"),
                  (6, "read read read rpc write cas"),
                  (5, "read read read read cas")),
    "smart-rcu": ((1, "read"),
                  (7, "read read read read rpc write cas"),
                  (5, "read read read write cas"),
                  (5, "read read read read cas")),
    "rolex": ((1, "read_batch"),
              (4, "read_batch masked_cas read_batch write_batch"),
              (4, "read_batch masked_cas read_batch write_batch"),
              (4, "read_batch masked_cas read_batch write_batch")),
    "rolex-indirect": ((2, "read_batch read"),
                       (6, "read_batch masked_cas read_batch rpc write "
                           "write_batch"),
                       (5, "read_batch masked_cas read_batch write "
                           "write_batch"),
                       (4, "read_batch masked_cas read_batch write_batch")),
    "chime-learned": ((2, "read read"),
                      (5, "read read masked_cas read write_batch"),
                      (5, "read_batch masked_cas read read write_batch"),
                      (5, "read read masked_cas read write_batch")),
    "outback": ((1, "read"), (2, "read write"), (2, "read rpc")),
    "flexkv": ((1, "read"), (2, "read write"), (4, "read read cas write")),
}


@pytest.mark.parametrize("name", registry.family_names())
class TestFastPathsByObservation:
    """What each family's point operations cost is read off the queue
    pair, not declared: 2 000 bulk-loaded keys, two searches to warm the
    cache, then one search, one update, one fresh-key insert and (where
    the family has one) one delete, each under its own
    :class:`QpTracer`."""

    def test_point_ops_issue_the_pinned_verbs(self, name):
        cluster = make_cluster(clients_per_cn=1)
        index = registry.build_index(name, cluster)
        index.bulk_load([(key * 10, key * 7) for key in range(1, 2001)])
        client = index.client(cluster.cns[0].clients[0])
        observed = []

        def traced(operation):
            with QpTracer(client.qp) as tracer:
                yield from operation
            observed.append((tracer.summary()["round_trips"],
                             " ".join(r.kind for r in tracer.records)))

        def body():
            yield from client.search(5000)
            yield from client.search(5000)
            yield from traced(client.search(5000))
            yield from traced(client.update(5000, 1))
            yield from traced(client.insert(5005, 2))
            if len(FAST_PATHS[name]) == 4:
                yield from traced(client.delete(5000))

        drive(cluster, body())
        assert tuple(observed) == FAST_PATHS[name]
        if registry.get_family(name).one_rtt_point:
            assert observed[0][0] == 1


@pytest.mark.parametrize("name", registry.family_names())
def test_delete_is_a_bool_or_a_typed_error(name):
    """A family without a delete (Outback, FlexKV) says so with a
    ``WorkloadError`` naming its index and the operation, not with an
    ``AttributeError`` for a missing hook."""
    cluster = make_cluster(clients_per_cn=1)
    index = registry.build_index(name, cluster)
    index.bulk_load(PAIRS)
    client = index.client(cluster.cns[0].clients[0])

    def body():
        try:
            return (yield from client.delete(500))
        except WorkloadError as error:
            return error

    outcome, = drive(cluster, body())
    if isinstance(outcome, WorkloadError):
        assert str(outcome) == (
            f"{type(index).__name__} does not support delete")
    else:
        assert outcome is True


# ---------------------------------------------------------------------------
# Minimal perfect hashing (Outback's routing structure)
# ---------------------------------------------------------------------------


class TestMinimalPerfectHash:
    def test_bijection_over_construction_keys(self):
        keys = list(range(1, 3001))
        mph = MinimalPerfectHash(keys, seed=5)
        slots = {mph.slot_of(k) for k in keys}
        # One slot per key, inside a table minimal but for its spare
        # slots (a twentieth of it).
        assert len(slots) == len(keys)
        assert slots <= set(range(mph.num_slots))
        assert mph.num_slots == len(mph) == 3158  # ceil(3000 / 0.95)
        mph.check_perfect(keys)

    def test_deterministic_in_keys_and_seed(self):
        keys = [k * 7 for k in range(1, 500)]
        a = MinimalPerfectHash(keys, seed=3)
        b = MinimalPerfectHash(keys, seed=3)
        assert [a.slot_of(k) for k in keys] == [b.slot_of(k) for k in keys]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SimulationError):
            MinimalPerfectHash([1, 2, 2])

    def test_empty_key_set(self):
        mph = MinimalPerfectHash([])
        assert len(mph) == 0

    def test_tight_tables_still_build(self):
        # Many 1- and 2-key tail buckets place last, into the spare
        # slots: construction must stay total across sizes, from a
        # table with a single spare slot up.
        for n in (1, 2, 19, 100, 1000, 10_000):
            keys = list(range(1, n + 1))
            mph = MinimalPerfectHash(keys, seed=0)
            mph.check_perfect(keys)

    @pytest.mark.parametrize("num_keys", [1_000, 40_000, 100_000])
    @pytest.mark.parametrize("key_set", ["ycsb", "sequential", "sparse"])
    def test_builds_in_one_pass_at_every_scale(self, key_set, num_keys):
        """``default``'s 40 000 YCSB keys took 11 whole-table rebuilds at
        load factor 1.0; with spare slots one pass places every bucket,
        with salts that fit the 16 bits ``routing_bytes`` charges for
        them."""
        keys = {
            "ycsb": lambda: [key for key, _ in dataset(num_keys)],
            "sequential": lambda: list(range(10**12, 10**12 + 8 * num_keys,
                                             8)),
            "sparse": lambda: [key for key, _ in dataset(
                num_keys, key_space=16 * num_keys, seed=7)],
        }[key_set]()
        mph = MinimalPerfectHash(keys, seed=17)
        mph.check_perfect(keys)
        assert max(mph._displacements) < 1 << 16
        assert all(0 <= mph.slot_of(key) < mph.num_slots
                   for key in keys[::97])

    def test_routing_bytes_tracks_buckets(self):
        mph = MinimalPerfectHash(list(range(1, 401)), keys_per_bucket=4)
        assert mph.routing_bytes == 2 * mph.num_buckets


# ---------------------------------------------------------------------------
# The landed families: functional contract + invariants
# ---------------------------------------------------------------------------


def build_kv(index_cls, cluster, **kwargs):
    index = index_cls(cluster, **kwargs)
    index.bulk_load(PAIRS)
    return index


@pytest.mark.parametrize("index_cls", [OutbackIndex, FlexKVIndex],
                         ids=["outback", "flexkv"])
class TestKvFamilies:
    def test_bulk_load_roundtrip(self, index_cls):
        cluster = make_cluster()
        index = build_kv(index_cls, cluster)
        assert index.collect_items() == PAIRS

    def test_point_ops(self, index_cls):
        cluster = make_cluster()
        index = build_kv(index_cls, cluster)
        client = index.client(cluster.cns[0].clients[0])
        out = {}

        def gen():
            out["hit"] = yield from client.search(400)
            out["miss"] = yield from client.search(899_999)
            yield from client.insert(900_001, 11)
            out["ins"] = yield from client.search(900_001)
            yield from client.update(400, 99)
            out["upd"] = yield from client.search(400)

        drive(cluster, gen())
        assert out == {"hit": 4000, "miss": None, "ins": 11, "upd": 99}

    def test_concurrent_disjoint_inserts(self, index_cls):
        # 120 new keys stays within outback's 4-slot overflow buckets at
        # the default 0.5 headroom (overflow has no probe chain).
        cluster = make_cluster(num_cns=2, clients_per_cn=4)
        index = build_kv(index_cls, cluster)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        keys = list(range(900_000, 900_120))
        per = len(keys) // len(clients)

        def worker(client, chunk):
            for key in chunk:
                yield from client.insert(key, key + 1)

        drive(cluster, *[worker(c, keys[i * per:(i + 1) * per])
                         for i, c in enumerate(clients)])
        items = dict(index.collect_items())
        for key in keys:
            assert items[key] == key + 1

    def test_kv_invariants_dispatch(self, index_cls):
        # No internal_layout -> the KV checker runs (no duplicate slots,
        # all committed keys present).
        cluster = make_cluster()
        index = build_kv(index_cls, cluster)
        report = check_index_invariants(
            index, expected_keys=[k for k, _ in PAIRS])
        assert report.ok, report.violations
        assert report.keys == len(PAIRS)


class TestFlexKvEndianness:
    def test_cn_insert_stores_big_endian_key(self):
        # Regression: the slot-claim CAS operates on little-endian u64
        # words while keys are stored big-endian; CASing the raw key int
        # used to plant a byte-swapped key that search could never find
        # and collect_items reported as garbage.
        cluster = make_cluster()
        index = build_kv(FlexKVIndex, cluster)
        client = index.client(cluster.cns[0].clients[0])
        out = {}

        def gen():
            yield from client.insert(611, 42)
            out["read_back"] = yield from client.search(611)

        drive(cluster, gen())
        assert out["read_back"] == 42
        items = dict(index.collect_items())
        assert items[611] == 42
        swapped = int.from_bytes((611).to_bytes(8, "big"), "little")
        assert swapped not in items


class TestFlexKvPlacement:
    def test_static_mn_placement_uses_rpc_only(self):
        cluster = make_cluster(placement="mn")
        index = build_kv(FlexKVIndex, cluster)
        client = index.client(cluster.cns[0].clients[0])
        out = {}

        def gen():
            out["hit"] = yield from client.search(123)
            yield from client.insert(900_100, 9)
            out["ins"] = yield from client.search(900_100)

        drive(cluster, gen())
        assert out == {"hit": 1230, "ins": 9}
        stats = cluster.cns[0].clients[0].qp.stats
        assert stats.rpcs == 3
        assert stats.reads == 0

    def test_constrained_cache_flips_partitions(self):
        # A CN cache far below the directory footprint must drive the
        # pressure policy to MN-side execution.
        footprint = FlexKVIndex.directory_bytes(len(PAIRS), 1)
        cluster = make_cluster(cache_bytes=max(1024, footprint // 10),
                               clients_per_cn=4)
        index = build_kv(FlexKVIndex, cluster)
        clients = [index.client(ctx) for ctx in cluster.clients()]

        def worker(client, offset):
            for i in range(100):
                yield from client.search(1 + (i * 13 + offset) % 1000)

        drive(cluster, *[worker(c, i * 37) for i, c in enumerate(clients)])
        assert index.placement_switches >= 1

    def test_resolve_placement_validates(self):
        assert ClusterConfig().placement == "auto"
        assert ClusterConfig(placement="cn").placement == "cn"
        with pytest.raises(ConfigError, match="ClusterConfig.placement"):
            ClusterConfig(placement="gpu")

    def test_directory_bytes_matches_bulk_load(self):
        cluster = make_cluster()
        index = build_kv(FlexKVIndex, cluster)
        expected = FlexKVIndex.directory_bytes(len(PAIRS), 1, index.config)
        assert index.meta_bytes * index.partitions == expected


class TestOutbackRouting:
    def test_search_is_single_read(self):
        cluster = make_cluster()
        index = build_kv(OutbackIndex, cluster)
        ctx = cluster.cns[0].clients[0]
        client = index.client(ctx)
        before = ctx.qp.stats.reads

        def gen():
            return (yield from client.search(500))

        value, = drive(cluster, gen())
        assert value == 5000
        assert ctx.qp.stats.reads == before + 1


# ---------------------------------------------------------------------------
# Environment-variable registry (CLI startup validation)
# ---------------------------------------------------------------------------


class TestKnownEnvVars:
    def test_known_env_vars_match_source_literals(self):
        # The knob table in config.py is the only place under src/repro
        # that spells a "REPRO_*" name or touches os.environ; every
        # other layer takes fields.  KNOWN_ENV_VARS is derived from the
        # table, so it must name exactly config.py's literals.
        package = pathlib.Path(repro.__file__).parent
        for path in package.rglob("*.py"):
            if path != package / "config.py":
                text = path.read_text()
                assert not re.findall(r'"REPRO_[A-Z_]+"', text), path
                assert "os.environ" not in text, path
        config_text = (package / "config.py").read_text()
        literals = set(re.findall(r'"(REPRO_[A-Z_]+)"', config_text))
        assert literals == KNOWN_ENV_VARS
        assert len(KNOWN_ENV_VARS) == 13
        assert not re.search(r"os\.environ(\[|\.(setdefault|pop|update))",
                             config_text)

    def test_unknown_env_vars_flags_typos_only(self):
        environ = {
            "REPRO_PLACEMENT": "mn",
            "REPRO_DETPH": "4",
            "PATH": "/usr/bin",
            "REPRO_BOGUS": "x",
        }
        assert unknown_env_vars(environ) == ["REPRO_BOGUS", "REPRO_DETPH"]

    def test_all_known_names_have_repro_prefix(self):
        assert all(name.startswith("REPRO_") for name in KNOWN_ENV_VARS)


# ---------------------------------------------------------------------------
# Family plumbing is written once (repro.core.family / btree_base)
# ---------------------------------------------------------------------------


class TestFamilyPlumbingWrittenOnce:
    #: Helpers every family used to re-spell; each has exactly one home.
    SINGLE_HOME = ("_alloc", "_host_alloc", "_host_write", "_host_read",
                   "_host_alloc_blocks", "_host_read_block", "_read_block",
                   "_write_block", "_build_internal_levels", "_lock_spin",
                   "remote_memory_bytes",
                   # The sorted-array node and the model-routed leaf
                   # group (ISSUE 24): whole-node IO, the level writer,
                   # the children[0] descent; the candidate window and
                   # the locked chain walk.
                   "_read_sorted_node", "_write_fresh_node",
                   "_host_write_level", "_host_stored", "leftmost_leaf",
                   "candidate_leaves", "synonym_chain_lengths",
                   "_write_group", "_write_chain")
    #: (class, method) pairs allowed beside the single home, with reason.
    ALLOWED = {
        # Sums its per-shard sub-indexes instead of the cluster's MNs.
        ("ShardedIndex", "remote_memory_bytes"),
    }

    def test_each_helper_is_defined_in_exactly_one_class(self):
        package = pathlib.Path(repro.__file__).parent
        homes = {name: [] for name in self.SINGLE_HOME}
        for folder in ("core", "baselines"):
            for path in sorted((package / folder).glob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(node, ast.ClassDef):
                        continue
                    for item in node.body:
                        if (isinstance(item, ast.FunctionDef)
                                and item.name in homes
                                and (node.name, item.name) not in self.ALLOWED):
                            homes[item.name].append(node.name)
        assert all(len(classes) == 1 for classes in homes.values()), homes

    def test_one_retry_idiom_and_no_raw_unlock(self):
        package = pathlib.Path(repro.__file__).parent
        base = {package / "core" / "family.py",
                package / "core" / "btree_base.py"}
        for path in package.rglob("*.py"):
            text = path.read_text()
            assert "range(MAX_RETRIES)" not in text, path
            assert 'getattr(self, "retry"' not in text, path
            if path not in base:
                # Releasing a lock is _unlock_writes/_unlock_remote/
                # _restore_unlock's job (leases, tickets, delegation).
                assert not re.search(r"lock_addr,\s*encode_u64\(0\)", text), path

    def test_per_entry_sync_checks_are_only_the_oracle(self):
        """Reference implementations — the per-entry sync checks, the
        field-by-field leaf compositions, the one-heap event queue, the
        per-key loaders — live in ``tests/oracles.py``, where the
        property tests hold the compiled paths to them: no module under
        ``src/repro`` may define, import or call one of their names."""
        package = pathlib.Path(repro.__file__).parent
        oracle = set(oracles.__all__)
        offenders = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Call):
                    names = [getattr(node.func, "id",
                                     getattr(node.func, "attr", ""))]
                offenders += [(path.name, node.lineno, name)
                              for name in names
                              if name in oracle or name.startswith("tests")]
        assert not offenders, offenders

    def test_per_entry_leaf_composition_is_only_the_oracle(self):
        """Whole leaves are composed by ``LeafLayout.encode_image`` and
        ``SortedNodeView.compose``'s encoder; the per-entry way — a
        blank view, then ``write_entry`` / ``set_entry_bitmap`` with the
        EV bump off — is ``tests/oracles.py``'s, so nothing under
        ``src/repro`` may spell it."""
        package = pathlib.Path(repro.__file__).parent
        callers = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", None)
                unbumped = any(
                    keyword.arg == "bump_ev"
                    and getattr(keyword.value, "value", None) is False
                    for keyword in node.keywords)
                if (name in {"write_entry", "set_entry_bitmap"} and unbumped
                        or name == "blank" and getattr(
                            node.func.value, "id", None) == "LeafNodeView"):
                    callers.append((path.name, name, node.lineno))
        assert not callers, callers

    def test_verbs_are_issued_on_the_queue_pair(self):
        """A verb has one spelling, ``qp.<verb>``: no ``ops`` executor
        between a client and its queue pair, no declared ``plans`` /
        ``access_family`` beside the code that issues the verbs, and
        none of the plan layer's names defined or imported — nor those
        of the per-family node classes ``SortedNodeLayout`` /
        ``SortedNodeView`` replaced."""
        package = pathlib.Path(repro.__file__).parent
        verbs = {"read", "read_batch", "write", "write_batch", "cas",
                 "masked_cas", "faa", "rpc", "offload", "stats"}
        declared = {"plans", "access_family"}
        gone = {"TraversalPlan", "AccessStep", "PlanExecutor", "family_plans",
                "OffloadCostModel", "InternalLayout", "InternalNodeView",
                "ShermanLeafLayout", "ShermanLeafView"}
        offenders = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Attribute):
                    through_ops = (node.attr in verbs
                                   and getattr(node.value, "attr", "") == "ops")
                    if through_ops or node.attr in declared:
                        names = [ast.unparse(node)]
                elif isinstance(node, ast.Name):  # a class-level assignment
                    names = [node.id] if node.id == "access_family" else []
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name] if node.name in gone else []
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names
                             if alias.name in gone
                             or node.module == "repro.core.access"]
                offenders += [(path.name, node.lineno, name) for name in names]
        assert not offenders, offenders

    def test_verbs_have_no_coroutine_body(self):
        """A verb's fabric-side life is one timeline: nothing in
        ``rdma/verbs.py`` may allocate a per-hop ``Timeout`` / ``AllOf``
        or delegate to a ``_…_group`` / ``_atomic`` generator — the
        coroutine bodies are gone, not bypassed."""
        source = pathlib.Path(repro.__file__).parent / "rdma" / "verbs.py"
        tree = ast.parse(source.read_text())
        banned = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if name in {"timeout", "all_of", "any_of", "Timeout", "AllOf"}:
                    banned.append(name)
            elif isinstance(node, ast.FunctionDef):
                if node.name.endswith("_group") or node.name == "_atomic":
                    banned.append(node.name)
                if node.name in {"read", "read_batch", "write", "write_batch",
                                 "cas", "masked_cas", "faa", "rpc"}:
                    # injector gates aside, a verb yields exactly once.
                    yields = [n for n in ast.walk(node)
                              if isinstance(n, ast.Yield)]
                    assert len(yields) == 1, node.name
                    assert isinstance(yields[0].value, ast.Call), node.name
            elif isinstance(node, ast.YieldFrom):
                target = ast.unparse(node.value)
                assert target.startswith("self.injector."), target
        assert not banned, banned


# ---------------------------------------------------------------------------
# Campaign spec: placement pinning keeps old hashes stable
# ---------------------------------------------------------------------------


class TestCellSpecPlacement:
    def test_default_placement_leaves_hash_unchanged(self):
        from repro.xpmt.spec import _cell_payload, CellSpec

        payload = _cell_payload(CellSpec("flexkv", "C", 8))
        assert "placement" not in payload

    def test_non_default_placement_rekeys_and_labels(self):
        from repro.xpmt.spec import _cell_payload, CellSpec

        cell = CellSpec("flexkv", "C", 8, placement="mn")
        assert _cell_payload(cell)["placement"] == "mn"
        assert "p:mn" in cell.label()
