"""The family base (:mod:`repro.core.family`) as every family uses it.

* every registered family completes a contended write-heavy point under
  every sync mode it declares, with and without lock leases, at depth 1
  and 4 (at 28828c4 Sherman and Marlin did not: their unlocks bypassed
  the lease- and ticket-aware release);
* exhausting a retry budget is a typed ``RetryExhaustedError`` in every
  family, and every family honours ``index.retry_policy``.
"""

import pytest

from repro.baselines import ShermanConfig, ShermanIndex
from repro.baselines.smart import SEAL_BIT, decode_node, node_size, unpack_slot
from repro.bench.runner import run_point
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import OperationTimeoutError, RetryExhaustedError
from repro.layout import decode_u64, encode_key, encode_u64
from repro.obs import BUS
from repro.registry import build_index, families
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
    overdue = RetryPolicy(deadline=0.0).start(what, engine, None, *args)
    with pytest.raises(OperationTimeoutError) as raised:
        overdue.check()
    assert str(raised.value) == (
        f"{label}: deadline of 0.0us exceeded after 0 attempts")


def test_sherman_bulk_load_bounded_like_chime():
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = ShermanIndex(cluster, ShermanConfig(span=1))
    with pytest.raises(RetryExhaustedError, match="64 internal levels"):
        index.bulk_load([(k, k) for k in range(1, 50)])
