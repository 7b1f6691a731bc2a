"""The family base (:mod:`repro.core.family`) as every family uses it.

* every registered family completes a contended write-heavy point under
  every sync mode it declares, with and without lock leases, at depth 1
  and 4 (at 28828c4 Sherman and Marlin did not: their unlocks bypassed
  the lease- and ticket-aware release);
* every family with a lock word steals an orphaned lease;
* exhausting a retry budget is a typed ``RetryExhaustedError`` in every
  family, and every family honours ``index.retry_policy``;
* a releasing batch lost on the wire gives back everything the lock
  line held — lock bit, lease, queue ticket — in every lock-word family
  × sync mode × leases cell, and in split propagation;
* every op of every family answers as if nothing was lost when the
  fabric loses a verb it issued, of every kind it issues;
* one stale-route rule decides when a route's cached parent leaves the
  CN cache, and drops it once.
"""

import functools

import pytest

from repro.baselines.sherman import ShermanConfig, ShermanIndex
from repro.baselines.smart import SEAL_BIT, decode_node, node_size, unpack_slot
from repro.bench.runner import run_point
from repro.cluster import Cluster
from repro.config import ChimeConfig, ClusterConfig
from repro.core.chime import ChimeIndex
from repro.core.btree_base import LeafRef
from repro.core.node_layout import (
    LOCK_BIT,
    LOCK_LEASE_OFFSET,
    LOCK_QUEUE_SPAN,
    LOCK_SERVING_OFFSET,
    LOCK_TICKET_OFFSET,
    pack_lease,
    unpack_lease,
)
from repro.errors import RetryExhaustedError
from repro.faults import FaultPlan, check_index_invariants
from repro.layout import decode_u64, encode_key, encode_u64
from repro import obs
from repro.obs import BUS
from repro.registry import build_index, families, get_family
from repro.retry import RetryPolicy
from repro.sim import Engine

#: Lease cells pin a lease comfortably above any lock tenure (the
#: 200 us default is held to in ``test_marlin_depth_4_fits_the_default_
#: lease``).
LEASE = 2e-3

_CELLS = [(family.name, mode, leases, depth)
          for family in families()
          for mode in family.sync_modes
          for leases in (False, True)
          for depth in (1, 4)]


def _contended(index_name, mode, leases, depth, clients_per_cn, keys, ops):
    config = ClusterConfig(
        num_cns=2, clients_per_cn=clients_per_cn, seed=7, sync_mode=mode,
        pipeline_depth=depth, lock_leases=leases,
        **({"lease_duration": LEASE} if leases else {}))
    return run_point(index_name, "A", keys, ops, config, theta=0.99)


@pytest.mark.parametrize("index_name,mode,leases,depth", _CELLS)
def test_contended_point_completes(index_name, mode, leases, depth):
    result = _contended(index_name, mode, leases, depth,
                        clients_per_cn=4, keys=200, ops=30)
    assert result.ops_completed == 2 * 4 * 30


def test_marlin_depth_4_fits_the_default_lease():
    """Every lane's first allocation is a chunk RPC and 64 lanes queue
    on the MN's 5 us/request CPU.  Marlin used to write its value block
    *under* the leaf lock, so a locked fallback update waiting ~195 us
    in that queue overran the 200 us lease (``LockLeaseExpiredError``);
    it allocates before locking now."""
    config = ClusterConfig(num_cns=2, clients_per_cn=8, seed=7,
                           pipeline_depth=4, lock_leases=True)
    result = run_point("marlin", "A", 400, 60, config, theta=0.99)
    assert result.ops_completed == 2 * 8 * 60


def test_sherman_leases_cost_one_extra_write_not_an_expiry_wait():
    """With the lease word cleared at unlock, leases cost Sherman what
    they cost CHIME (~0.75x); at 28828c4 every acquire waited out an
    expiry and stole (0.047x)."""
    off, on = (_contended("sherman", "optimistic", leases, 1,
                          clients_per_cn=8, keys=400, ops=100)
               for leases in (False, True))
    assert on.ops_completed == off.ops_completed == 1600
    assert on.throughput_mops >= 0.6 * off.throughput_mops


# -- typed exhaustion ------------------------------------------------------

KEYS = list(range(1, 401))
TIGHT = RetryPolicy(max_attempts=3)


def _built(index_name):
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = build_index(index_name, cluster)
    index.bulk_load([(k, k) for k in KEYS])
    index.retry_policy = TIGHT
    return cluster, index


def _run(cluster, gen):
    cluster.engine.process(gen)
    cluster.run()


def _verbs(recording):
    """Every verb the recorded ops issued, op by op."""
    return [verb for trace in recording.ops() for verb in trace.verbs]


def _leaf_addrs(index):
    addrs = index.leaf_addrs
    return addrs() if callable(addrs) else addrs


@pytest.mark.parametrize("index_name", ["sherman", "rolex", "chime-learned"])
def test_held_leaf_lock_exhausts_with_typed_error(index_name):
    cluster, index = _built(index_name)
    for addr in _leaf_addrs(index):
        lock_addr = addr + index.leaf_layout.lock_offset
        word = decode_u64(index._host_read(lock_addr, 8))
        index._host_write(lock_addr, encode_u64(word | 1))
    client = index.client(next(iter(cluster.clients())))
    failed = []
    watch = BUS.subscribe(failed.append, kinds=("lock.cas_fail",))
    try:
        with pytest.raises(RetryExhaustedError, match="lock .* 3 attempts"):
            _run(cluster, client.update(200, 7))
    finally:
        watch.unsubscribe()
    assert len(failed) == 3  # the shared spin reports each lost CAS


#: Every family with a leaf lock word.
LOCK_WORD_FAMILIES = ["chime", "chime-indirect", "chime-learned", "marlin",
                      "rolex", "rolex-indirect", "sherman"]


@pytest.mark.parametrize("index_name", LOCK_WORD_FAMILIES)
def test_orphaned_lease_is_stolen_in_every_lock_word_family(index_name):
    """Every leaf locked by a holder whose lease ran out: with leases
    on, an upsert of a loaded key (a locked write in every family)
    steals that one leaf's
    lease and completes.  ROLEX, ROLEX-Indirect and CHIME-Learned used
    to lock through a plain pairing that ignored ``lock_leases`` and
    spun on the lock bit until the budget ran out."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1,
                                    lock_leases=True))
    index = build_index(index_name, cluster)
    index.bulk_load([(k, k) for k in KEYS])
    index.retry_policy = TIGHT
    orphan = encode_u64(pack_lease(owner=99, epoch=5, expiry_us=0))
    for addr in _leaf_addrs(index):
        lock_addr = addr + index.leaf_layout.lock_offset
        word = decode_u64(index._host_read(lock_addr, 8))
        index._host_write(lock_addr, encode_u64(word | 1))
        index._host_write(lock_addr + LOCK_LEASE_OFFSET, orphan)
    client = index.client(next(iter(cluster.clients())))
    steals, found = [], []

    def upsert_then_search():
        found.append((yield from client.insert(200, 7)))
        found.append((yield from client.search(200)))

    watch = BUS.subscribe(steals.append, kinds=("lock.steal",))
    try:
        _run(cluster, upsert_then_search())
    finally:
        watch.unsubscribe()
    assert found == [True, 7]
    assert len(steals) == 1


# -- a lost releasing batch ----------------------------------------------

_LOCK_CELLS = [(name, mode, leases)
               for name in LOCK_WORD_FAMILIES
               for mode in get_family(name).sync_modes
               for leases in (False, True)]


def _unclean_lock_lines(index):
    """Every leaf and internal-node lock line still holding a lock bit,
    a lease or an unserved queue ticket."""
    addrs = [addr + index.leaf_layout.lock_offset
             for addr in _leaf_addrs(index)]
    if hasattr(index, "internal_nodes"):
        addrs += [addr + index.internal_layout.lock_offset
                  for addr, _parsed in index.internal_nodes()]
    unclean = []
    for addr in addrs:
        line = index._host_read(addr, LOCK_QUEUE_SPAN)
        owner, _epoch, _expiry = unpack_lease(
            decode_u64(line, LOCK_LEASE_OFFSET))
        if (decode_u64(line, 0) & LOCK_BIT or owner
                or decode_u64(line, LOCK_SERVING_OFFSET)
                != decode_u64(line, LOCK_TICKET_OFFSET)):
            unclean.append(hex(addr))
    return unclean


@pytest.mark.parametrize("index_name,mode,leases", _LOCK_CELLS)
def test_lost_releasing_batch_gives_the_lock_back(index_name, mode, leases):
    """The first releasing batch (data + unlock) is lost on the wire.
    The lock it would have released is restored, so an insert and an
    update on the same leaf complete right after, with no lease to wait
    out and steal; nothing is left locked, leased or queued.  Releases
    used to mark the lock released when they *built* the batch, so the
    loss wedged the leaf in every leases-off cell (and left a lease to
    steal in every other)."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1,
                                    sync_mode=mode, lock_leases=leases))
    index = build_index(index_name, cluster)
    pairs = [(key, key) for key in range(2, 401, 2)]
    if get_family(index_name).model_routed:
        index.bulk_load(pairs, future_keys=KEYS)
    else:
        index.bulk_load(pairs)
    injector = cluster.install_faults(
        FaultPlan(seed=1).drop(1.0, kinds=("write_batch",), max_count=1))
    client = index.client(next(iter(cluster.clients())))
    done = []

    def writes():
        for op, key, value in (("insert", 201, 7), ("insert", 203, 8),
                               ("update", 202, 9)):
            done.append((yield from getattr(client, op)(key, value)))

    steals = []
    watch = BUS.subscribe(steals.append, kinds=("lock.steal",))
    try:
        _run(cluster, writes())
    finally:
        watch.unsubscribe()
    assert injector.counters == {"fault.loss": 1}
    assert done == [True, True, True]
    assert steals == []
    assert _unclean_lock_lines(index) == []
    items = dict(index.collect_items())
    assert (items[201], items[203], items[202]) == (7, 8, 9)


def _split_run(lose_at=None):
    """CHIME at span 16: odd keys inserted into the first leaves split
    them again and again, each split propagating into the root.  With
    *lose_at*, the first write batch issued from then on is lost.
    Returns the cluster, the index, the injector (or None) and the issue
    times of the root's releasing batches."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = ChimeIndex(cluster, ChimeConfig(span=16))
    index.bulk_load([(key, key) for key in range(2, 200, 2)])
    injector = None if lose_at is None else cluster.install_faults(
        FaultPlan(seed=1).drop(1.0, kinds=("write_batch",), start=lose_at,
                               max_count=1))
    client = index.client(next(iter(cluster.clients())))
    root = index.root_addr

    def inserts():
        for key in range(1, 62, 2):
            assert (yield from client.insert(key, key)) is True

    with obs.recording() as recording:
        _run(cluster, inserts())
    released = [verb.time for verb in _verbs(recording)
                if verb.kind == "write_batch" and verb.addr == root]
    return cluster, index, injector, released


def test_lost_parent_release_in_split_propagation_is_restored():
    """Split propagation locks the parent: losing the parent's releasing
    batch restores its lock, so the next split into that parent
    completes.  ``_propagate_split`` used to have no restore at all, and
    that next split died with ``RetryExhaustedError: lock 0x4240``."""
    _cluster, _index, _injector, clean = _split_run()
    assert len(clean) >= 3  # the root takes several splits' entries
    _cluster, index, injector, released = _split_run(lose_at=clean[0])
    assert injector.counters == {"fault.loss": 1}
    assert released and released[0] > clean[0]  # a later split landed
    keys = [*range(2, 200, 2), *range(1, 62, 2)]
    report = check_index_invariants(index, expected_keys=keys)
    assert report.ok, report.violations


# -- a lost verb re-runs the op -------------------------------------------

#: Each op's arguments: a loaded key, a new one, a loaded one, another
#: loaded one, a range.
_OPS = {"search": (200,), "insert": (201, 7), "update": (202, 9),
        "delete": (204,), "scan": (100, 20)}

#: Families without a delete.
_NO_DELETE = {"outback", "flexkv"}


def _one_op(index_name, op, plan=None):
    """``(answer, items, verb kinds issued, injector)`` of one *op* by a
    lone client of a fresh *index_name*, under *plan* if given."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = build_index(index_name, cluster)
    pairs = [(key, key) for key in range(2, 401, 2)]
    if get_family(index_name).model_routed:
        index.bulk_load(pairs, future_keys=KEYS)
    else:
        index.bulk_load(pairs)
    injector = cluster.install_faults(plan) if plan is not None else None
    client = index.client(next(iter(cluster.clients())))
    answer = []

    def run():
        answer.append((yield from getattr(client, op)(*_OPS[op])))

    with obs.recording() as recording:
        _run(cluster, run())
    kinds = [verb.kind for verb in _verbs(recording)]
    return answer, index.collect_items(), kinds, injector


@functools.lru_cache(maxsize=None)
def _fault_free(index_name, op):
    return _one_op(index_name, op)


def _lost_verb_cells():
    return [(family.name, op, kind)
            for family in families()
            for op in _OPS
            if (op != "scan" or family.supports_scan)
            and (op != "delete" or family.name not in _NO_DELETE)
            for kind in sorted(set(_fault_free(family.name, op)[2]))]


@pytest.mark.parametrize("index_name,op,kind", _lost_verb_cells())
def test_every_op_survives_a_lost_verb(index_name, op, kind):
    """The first verb of *kind* the op issues is lost: the op runs again
    from the start (``FamilyClientBase._landed``), and its answer and
    the index's items are the fault-free twin's.  Only CHIME's search
    and writes, and scans, used to run again; in every other family
    the loss escaped the op as a ``FaultInjectedError``."""
    answer, items, _kinds, _none = _fault_free(index_name, op)
    plan = FaultPlan(seed=1).drop(1.0, kinds=(kind,), max_count=1)
    lossy, lossy_items, _kinds, injector = _one_op(index_name, op, plan)
    assert (lossy, lossy_items) == (answer, items)
    assert injector.counters == {"fault.loss": 1}


def test_a_lost_seal_gives_the_node_back():
    """A Node4 upgrade seals the node's four slots one CAS at a time;
    the second seal CAS is lost.  The first seal is given back before
    the insert runs again, so the upgrade completes and no slot is left
    sealed.  The earlier seal used to stay, and every later insert into
    the node retried until its budget ran out."""
    pairs = [(0x0100 + i, i) for i in range(4)]  # one full Node4

    def insert(plan=None):
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = build_index("smart", cluster)
        index.bulk_load(pairs)
        injector = cluster.install_faults(plan) if plan else None
        client = index.client(next(iter(cluster.clients())))
        done = []

        def run():
            done.append((yield from client.insert(0x0104, 4)))

        with obs.recording() as recording:
            _run(cluster, run())
        cas_times = [verb.time for verb in _verbs(recording) if verb.kind == "cas"]
        return index, injector, cas_times, done

    _index, _none, cas_times, _done = insert()
    assert len(cas_times) >= 2
    index, injector, _times, done = insert(FaultPlan(seed=1).drop(
        1.0, kinds=("cas",), start=cas_times[1], max_count=1))
    assert injector.counters == {"fault.loss": 1}
    assert done == [True]
    assert list(index.sealed_slots()) == []
    assert index.collect_items() == [*pairs, (0x0104, 4)]


def test_smart_sealed_slot_exhausts_with_typed_error():
    cluster, index = _built("smart")
    key_bytes = encode_key(200)
    addr, node_type = index.root_addr, index.root_type
    while True:  # walk host-side to the slot holding the key's leaf
        node = decode_node(addr, index._host_read(addr, node_size(node_type)))
        depth = node.depth + len(node.prefix)
        slot = node.slot_index_for(key_bytes[depth])
        word = node.slots[slot]
        _occ, _partial, addr, is_leaf, node_type = unpack_slot(word)
        if is_leaf:
            break
    index._host_write(node.addr + 16 + 8 * slot, encode_u64(word | SEAL_BIT))
    client = index.client(next(iter(cluster.clients())))
    with pytest.raises(RetryExhaustedError, match=r"upsert\(200\).* 3 "):
        _run(cluster, client.update(200, 7))


def test_torn_neighborhood_exhausts_with_typed_error():
    cluster, index = _built("chime")
    layout = index.leaf_layout
    for addr in _leaf_addrs(index):  # odd entries get another NV: every
        for entry in range(1, layout.span, 2):  # neighbourhood reads torn
            at = addr + layout._entry_ev_ranges[entry][0]
            byte, = index._host_read(at, 1)
            index._host_write(at, bytes([byte ^ 0x10]))
    client = index.client(next(iter(cluster.clients())))
    with pytest.raises(RetryExhaustedError, match=(
            r"^neighborhood \d+ @ leaf 0x[0-9a-f]+: gave up after 3 attempts$")):
        _run(cluster, client.search(200))


@pytest.mark.parametrize("what,args,label", [
    ("op", (), "op"),
    ("search({})", (200,), "search(200)"),
    ("lock {:#x}", (0x1F40,), "lock 0x1f40"),
    ("{}({})", ("update", 200), "update(200)"),
    ("neighborhood {} @ leaf {:#x}", (3, 0x1F40),
     "neighborhood 3 @ leaf 0x1f40"),
])
def test_retry_label_is_formatted_only_when_raised(what, args, label):
    """``start`` carries the format and its arguments; the message a
    spent budget raises is what the eager f-string used to produce."""
    engine = Engine()
    state = TIGHT.start(what, engine, None, *args)
    assert state.what is what and state.args == args
    assert state.check() and state.check() and state.check()
    with pytest.raises(RetryExhaustedError) as raised:
        state.check()
    assert str(raised.value) == f"{label}: gave up after 3 attempts"


def test_sherman_bulk_load_bounded_like_chime():
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = ShermanIndex(cluster, ShermanConfig(span=1))
    with pytest.raises(RetryExhaustedError, match="64 internal levels"):
        index.bulk_load([(k, k) for k in range(1, 50)])


#: The key every :func:`test_one_stale_route_rule` row routes.
ROUTED = 1000

#: row -> (the leaf's child index in its parent, -1 the last; the parent
#: came from the cache; the leaf's sibling: "next" child, "moved" to
#: another; the fences the read saw, or None; contradicted once before)
#: and what the rule answers (stale, dropped, CN-cache invalidations).
STALE_ROUTE_ROWS = {
    "sibling is the next child": ((0, True, "next", None, False),
                                  (False, False, 0)),
    "sibling is not the next child": ((0, True, "moved", None, False),
                                      (True, True, 1)),
    "key at the high fence": ((0, True, "moved", (900, ROUTED), False),
                              (True, True, 1)),
    "key past the high fence": ((0, True, "next", (900, 950), False),
                                (True, True, 1)),
    "key below the low fence": ((0, True, "next", (1001, 1100), False),
                                (True, True, 1)),
    "key inside the fences read": ((0, True, "moved", (900, 1100), False),
                                   (False, False, 0)),
    "last child without fences": ((-1, True, "moved", None, False),
                                  (False, False, 0)),
    "fresh (uncached) parent": ((0, False, "moved", None, False),
                                (True, False, 0)),
    "second contradiction after a drop": ((0, True, "moved", None, True),
                                          (True, False, 1)),
}


@pytest.mark.parametrize("row", STALE_ROUTE_ROWS)
def test_one_stale_route_rule(row):
    """``BTreeClientBase._stale_route`` turns what a leaf read saw into
    a verdict; ``FamilyClientBase._drop_stale`` drops the parent a route
    took from the cache the first time the verdict is stale, then
    forgets it — a copy cached again since (by another client of the
    CN, say) stays."""
    (at, cached, sibling, fences, again), expected = STALE_ROUTE_ROWS[row]
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = build_index("chime", cluster)
    index.bulk_load([(k, k) for k in range(1, 2001)])
    client = index.client(next(iter(cluster.clients())))
    parent = index._host_internal(index.root_addr)
    assert parent.level == 1
    at %= parent.count
    cache = client.ctx.cache
    cache.put(parent.addr, parent, index.internal_layout.total_size)
    ref = LeafRef(parent.children[at], parent, at,
                  [parent.addr] if cached else [])
    seen = parent.children[1] if at == 0 and sibling == "next" \
        else parent.children[2]
    verdicts = [client._stale_route(ref, ROUTED, seen, fences)
                for _time in range(2 if again else 1)]
    dropped = [client._drop_stale(ref.trusted, verdicts[0])]
    if again:
        cache.put(parent.addr, parent, index.internal_layout.total_size)
        dropped.append(client._drop_stale(ref.trusted, verdicts[1]))
    assert (verdicts[-1], dropped[-1], cache.invalidations) == expected
    assert (cache.get(parent.addr) is None) == (dropped == [True])
