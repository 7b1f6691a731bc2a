"""Stateful histories: every family that takes writes, judged by
:func:`~repro.faults.history.check_history`.

A hypothesis :class:`RuleBasedStateMachine` per lock-word family ×
declared sync mode × lock leases on/off, and one per family without a
lock word (SMART's three variants, Outback, FlexKV — the last also
with a CN cache below its directory footprint, so partitions flip to
MN-side execution mid-run).  Each step runs one concurrent batch of
search / insert / update / delete on *distinct* keys, spread over eight
clients on two CNs; distinct keys still share leaves, so leaf locks
contend (and queue, and hand off) inside a batch.  After each batch
every answer so far and the final state must be legal for the history
the machine recorded, and the index must pass
:func:`~repro.faults.check_index_invariants`.  A family that scans also
takes quiescent scans between batches.  Same-key concurrency (ops on
one key in flight together, scans among them) has its own campaign per
family at the end.

The model-routed families (ROLEX, CHIME-Learned) route inserts through
a model trained on every key the machine can draw; an *untrained* key
falling between the loaded runs is checked on its own.  Known defects
are pinned as strict xfails instead: a SMART scan on one CN can walk
radix nodes its CN cached before the other CN's install, and concurrent
same-key SMART inserts can store a key twice.  The SMART machines
therefore drop the scanner's cache before a scan that a write from the
other CN reaches; every other scan runs over the warm cache.  A SMART
*search* over such nodes is exact: a delete or RCU update leaves a
tombstone in the leaf it unlinked, and the search that reads it walks
again uncached.
"""

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro import obs
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.faults.history import check_history, history
from repro.faults.invariants import check_index_invariants
from repro.registry import build_index, families, get_family
from tests.test_family_base import LOCK_WORD_FAMILIES

#: Keys the machine draws from; the even ones are bulk-loaded.
KEYS = 160

_CELLS = [(name, mode, leases)
          for name in LOCK_WORD_FAMILIES
          for mode in get_family(name).sync_modes
          for leases in (False, True)]

#: Families that take writes without a lock word.
LOCKLESS_FAMILIES = ["smart", "smart-opt", "smart-rcu", "outback", "flexkv"]

_KINDS = ("search", "insert", "update", "delete")

#: The rule a family's machine leaves out: Outback and FlexKV have no
#: delete.
_LEFT_OUT = {"outback": "delete", "flexkv": "delete"}


def _recorded(cluster, *gens):
    """Run *gens* to completion; the history they recorded."""
    with obs.recording() as rec:
        for gen in gens:
            cluster.engine.process(gen)
        cluster.run()
    return history(rec)


def _machine(index_name: str, mode: str, leases: bool, **cluster_fields):
    family = get_family(index_name)
    kinds = [kind for kind in _KINDS if kind != _LEFT_OUT.get(index_name)]
    ops = st.tuples(st.sampled_from(kinds), st.integers(1, KEYS),
                    st.integers(1, 1 << 20))

    class LockWordModel(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            self.cluster = Cluster(ClusterConfig(
                num_cns=2, clients_per_cn=4, sync_mode=mode,
                lock_leases=leases, seed=3, **cluster_fields))
            self.index = build_index(index_name, self.cluster)
            self.loaded = [(key, key * 7) for key in range(2, KEYS + 1, 2)]
            if family.model_routed:
                self.index.bulk_load(self.loaded,
                                     future_keys=range(1, KEYS + 1))
            else:
                self.index.bulk_load(self.loaded)
            self.ops = []
            self.clients = [self.index.client(ctx)
                            for ctx in self.cluster.clients()]
            #: Keys written by a client on a CN the scanner is not on,
            #: since the scanner's cache was last dropped.
            self.foreign_writes = set()

        @rule(batch=st.lists(ops, min_size=1, max_size=24,
                             unique_by=lambda op: op[1]))
        def concurrent_batch(self, batch) -> None:
            def lane(client, ops):
                for kind, key, value in ops:
                    args = (key,) if kind in ("search", "delete") \
                        else (key, value)
                    yield from getattr(client, kind)(*args)

            lanes = len(self.clients)
            scanner_cn = self.clients[-1].ctx.cn
            self.foreign_writes.update(
                key for number, (kind, key, _value) in enumerate(batch)
                if kind != "search"
                and self.clients[number % lanes].ctx.cn is not scanner_cn)
            self.ops += _recorded(self.cluster, *(
                lane(client, batch[number::lanes])
                for number, client in enumerate(self.clients)))

        if family.supports_scan:
            @rule(key=st.integers(1, KEYS), count=st.integers(1, 40))
            def quiescent_scan(self, key, count) -> None:
                held = [k for k, _v in self.index.collect_items() if k >= key]
                end = held[count - 1] if len(held) >= count else KEYS
                if family.family == "smart" and any(
                        key <= written <= end
                        for written in self.foreign_writes):
                    # A SMART scan walks its CN's cached radix nodes,
                    # which the other CN's writes leave stale (pinned
                    # below): drop them only when such a write is in range.
                    self.clients[-1].ctx.cache.clear()
                    self.foreign_writes.clear()

                def scan():  # called inside the recording, so it is traced
                    yield from self.clients[-1].scan(key, count)

                ops = _recorded(self.cluster, scan())
                assert [op.name for op in ops] == ["scan"], ops
                self.ops += ops

        @invariant()
        def every_answer_is_legal(self) -> None:
            violations = check_history(self.ops, self.loaded,
                                       self.index.collect_items())
            assert not violations, violations[:5]
            report = check_index_invariants(self.index)
            assert report.ok, report.violations

    return LockWordModel


_SETTINGS = settings(max_examples=6, stateful_step_count=5, deadline=None,
                     derandomize=True, database=None,
                     suppress_health_check=list(HealthCheck))


@pytest.mark.parametrize("index_name,mode,leases", _CELLS)
def test_lock_word_family_matches_a_dict(index_name, mode, leases):
    run_state_machine_as_test(
        _machine(index_name, mode, leases),
        settings=_SETTINGS)


@pytest.mark.parametrize("index_name", LOCKLESS_FAMILIES)
def test_lockless_family_matches_a_dict(index_name):
    """Outback and FlexKV ``insert`` used to return None (and take key
    0) through their own copies of the template."""
    run_state_machine_as_test(
        _machine(index_name, "optimistic", False),
        settings=_SETTINGS)


def test_flexkv_matches_a_dict_across_placement_flips():
    """Room for one partition directory of four (120 B each here): the
    cache-pressure policy flips partitions CN -> MN mid-run, while ops
    of the same batch are in flight on both paths, and every answer and
    the end state still match the dict."""
    switches = []

    class Flipping(_machine("flexkv", "optimistic", False, cache_bytes=128)):
        def teardown(self) -> None:
            switches.append(self.index.placement_switches)

    run_state_machine_as_test(Flipping, settings=_SETTINGS)
    assert sum(switches) >= 1, switches


@pytest.mark.parametrize("index_name", ["rolex", "chime-learned"])
def test_untrained_key_between_loaded_runs_is_inserted(index_name):
    """The model's window misses a key it was never trained on; the
    fence walk steps from it to the leaf that covers the key (it used to
    be reported absent and lost)."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = build_index(index_name, cluster)
    keys = [*range(1, 2001), *range(10**6, 10**6 + 2001)]
    index.bulk_load([(key, key) for key in keys])
    client = index.client(next(iter(cluster.clients())))
    found = []

    def upsert_then_search():
        found.append((yield from client.insert(500_000, 7)))
        found.append((yield from client.search(500_000)))

    cluster.engine.process(upsert_then_search())
    cluster.run()
    assert found == [True, 7]


def test_marlin_update_survives_a_concurrent_insert_into_its_leaf():
    """Marlin's update used to CAS the entry's value pointer without the
    leaf lock, and a concurrent locked insert rewrote the leaf from an
    image read before that CAS, putting the old pointer back; it takes
    the leaf lock now, as Sherman's does."""
    model = _machine("marlin", "optimistic", False)()
    model.concurrent_batch([("search", 1, 1)])
    model.concurrent_batch([("insert", 1, 1), ("update", 2, 1)])
    model.every_answer_is_legal()


@pytest.mark.xfail(strict=True, reason=(
    "a SMART scan walks the radix nodes its CN cached; an install by "
    "another CN's client invalidates only that CN's copy, so the scan "
    "misses the key (its search re-walks uncached on a miss, its scan "
    "has no miss to re-walk on; ROADMAP item 3(c))"))
def test_smart_scan_sees_a_key_another_cn_installed():
    model = _machine("smart", "optimistic", False)()
    scanner = model.clients[-1]  # on the CN the inserting client is not
    out = []

    def scan():
        out.append((yield from scanner.scan(1, 1)))

    for batch in ([], [("insert", 1, 1)]):
        if batch:
            model.concurrent_batch(batch)
        model.cluster.engine.process(scan())
        model.cluster.run()
    assert out == [[(2, 14)], [(1, 1)]]


def _search_around(index_name, write):
    """Key 2's value as a client on one CN finds it before and after a
    client on the other CN runs the batch *write* — the reader's CN
    keeps the radix nodes its first search cached."""
    model = _machine(index_name, "optimistic", False)()
    reader = model.clients[-1]  # on the CN the writing client is not
    found = []

    def search():
        found.append((yield from reader.search(2)))

    for batch in ([], write):
        if batch:
            model.concurrent_batch(batch)
        model.cluster.engine.process(search())
        model.cluster.run()
    return found, reader.ctx.cache.invalidations


def test_smart_search_misses_a_key_another_cn_deleted():
    """The delete leaves a tombstone in the unlinked leaf; the search
    that reads it through its CN's stale nodes drops them and walks
    again (it read the deleted value before)."""
    found, invalidations = _search_around("smart", [("delete", 2, 0)])
    assert found == [14, None] and invalidations > 0


def test_smart_rcu_search_sees_another_cn_update():
    """An RCU update CASes a fresh leaf into the slot and tombstones
    the old one; a search on the other CN read the old leaf's value
    through its cached nodes before."""
    found, invalidations = _search_around("smart-rcu", [("update", 2, 99)])
    assert found == [14, 99] and invalidations > 0


def test_flexkv_search_never_reads_an_unwritten_value():
    """FlexKV's CN-side insert CASes the key into an empty slot, then
    WRITEs the value; a search between the two used to return the
    claimed slot's zero value, which nobody wrote.  A claimed slot whose
    value is still 0 reads as absent."""
    cluster = Cluster(ClusterConfig(num_cns=2, clients_per_cn=1))
    index = build_index("flexkv", cluster)
    loaded = [(key, key) for key in range(2, 400, 2)]
    index.bulk_load(loaded)
    writer, reader = (index.client(ctx) for ctx in cluster.clients())
    engine = cluster.engine
    seen = []

    def insert():
        yield engine.timeout(5e-6)
        yield from writer.insert(101, 4242)

    def search():
        while 4242 not in seen:
            seen.append((yield from reader.search(101)))
            yield engine.timeout(0.05e-6)

    ops = _recorded(cluster, insert(), search())
    assert not check_history(ops, loaded, index.collect_items())
    assert set(seen) == {None, 4242}


#: Two concurrent SMART inserts of one key can both install it (ROADMAP
#: item 3(d)).  Shrunk, smart seed 3 of this campaign: ``cn0/c1
#: insert(19, 851778)`` [72.9-97.7 us] and ``cn0/c2 insert(19, 989275)``
#: [74.8-97.4 us] both answer True; ``cn1/c0 insert(19, 272711)``
#: [181.8-194.1 us] overwrites one copy, and scans from 200 us on still
#: read 989275 from the other.  On seed 6 the final state holds key 21
#: twice.  The same scans also meet ROADMAP item 3(c): radix nodes a CN
#: cached before the other CN's install.
_SMART_SAME_KEY = pytest.mark.xfail(strict=True, reason=(
    "concurrent SMART inserts of one key both install it (ROADMAP 3(d))"))


@pytest.mark.parametrize("index_name", [
    pytest.param(family.name, marks=_SMART_SAME_KEY)
    if family.family == "smart" else family.name for family in families()])
def test_same_key_ops_in_flight_are_legal(index_name):
    """Eight clients on two CNs run 30 ops each over keys 1-40 (the even
    ones loaded), so ops on one key are in flight together, scans among
    them when the family scans: every answer and the final state are
    legal for the history, and the audit is clean."""
    family = get_family(index_name)
    kinds = [kind for kind in _KINDS if kind != _LEFT_OUT.get(index_name)]
    kinds += ["scan"] if family.supports_scan else []
    loaded = [(key, key * 7) for key in range(2, 41, 2)]

    def lane(client, rng):
        for _ in range(30):
            kind, key = rng.choice(kinds), rng.randrange(1, 41)
            yield from getattr(client, kind)(*{
                "search": (key,), "delete": (key,),
                "scan": (key, rng.randrange(1, 12))}.get(
                    kind, (key, rng.randrange(1, 1 << 20))))

    for seed in range(1, 6):
        cluster = Cluster(ClusterConfig(num_cns=2, clients_per_cn=4,
                                        seed=seed))
        index = build_index(index_name, cluster)
        index.bulk_load(loaded, **({"future_keys": range(1, 41)}
                                   if family.model_routed else {}))
        ops = _recorded(cluster, *(
            lane(index.client(ctx), random.Random(seed * 100 + number))
            for number, ctx in enumerate(cluster.clients())))
        violations = check_history(ops, loaded, index.collect_items())
        assert not violations, (seed, violations[:3])
        assert check_index_invariants(index).ok, seed
