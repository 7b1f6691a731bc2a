"""The shared B+-tree-family scan (``BTreeClientBase._scan_once``) against
the loop it replaced, kept here as the oracle.

The oracle reads leaves as the per-family loops used to — one whole leaf
per READ, decoded through the per-entry accessors, CHIME leaves checked
with every per-entry oracle of :mod:`repro.core.sync` (NV, EV, and the
*hashed* hopscotch bitmap of all homes) — and routes by the sibling
chain alone, which no stale cached parent can mislead.  (The old loops
also fetched a first batch from the parent, sized ``count // (span // 2)
+ 2``, without checking that batch against the chain: a parent that
predated a split skipped the new leaf.  The shared loop validates it;
``test_a_stale_parent_cannot_skip_a_split_off_leaf`` is that case.)
"""

import random

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.nodes import LeafNodeView, SortedNodeView
from repro.errors import TornReadError
from repro.layout import StripedSpan
from repro.memory import NULL_ADDR
from repro.registry import build_index
from repro.workloads.ycsb import dataset
from tests.oracles import (
    check_entry_evs,
    check_hopscotch_bitmap,
    check_nv_uniform,
    collect_leaf_nv,
)

FAMILIES = ("chime", "chime-indirect", "sherman", "marlin")


def oracle_leaf(client, raw, key):
    """(pairs >= key, sibling) of one whole raw leaf, entry by entry;
    raises :class:`TornReadError` on a torn image."""
    layout = client.layout
    span = StripedSpan(raw, 0)
    if hasattr(client, "home_of"):  # a hopscotch leaf
        view = LeafNodeView(layout, span)
        every = range(layout.span)
        check_nv_uniform(collect_leaf_nv(view, every))
        check_entry_evs(view, every)
        for home in every:
            check_hopscotch_bitmap(view, home, client.home_of)
        entries = [view.entry(index) for index in every]
        return ([(entry.key, entry.value) for entry in entries
                 if entry.occupied and entry.key >= key],
                view.replica_sibling(0))
    view = SortedNodeView(layout, span)
    if len(set(view.nv_values())) > 1:
        raise TornReadError("torn sorted-array leaf")
    return ([view.entry(index) for index in range(view.count)
             if view.entry(index)[0] >= key], view.sibling)


def oracle_scan(client, key, count):
    """Up to *count* pairs from *key* on, one leaf at a time along the
    sibling chain."""
    ref = yield from client._locate_leaf(key)
    addr, results = ref.leaf_addr, []
    while addr != NULL_ADDR and len(results) < count:
        raw = yield from client.qp.read(addr, client.layout.raw_size)
        try:
            pairs, addr = oracle_leaf(client, raw, key)
        except TornReadError:
            continue
        results.extend(pairs)
    results.sort()
    del results[count:]
    if client.config.indirect_values:
        results = yield from client._resolve_indirect(results)
    return results


def drive(cluster, *gens):
    for gen in gens:
        cluster.engine.process(gen)
    cluster.run()


@pytest.mark.parametrize("key_space_factor", [1, 16], ids=["dense", "sparse"])
@pytest.mark.parametrize("family", FAMILIES)
def test_shared_scan_equals_the_whole_leaf_oracle(family, key_space_factor):
    """Scanners race inserting / updating writers (hops, node rewrites,
    splits); every result is ordered, holds only written values and
    skips no loaded key.  Once the writers are done, each client — its
    CN's cached parents as stale as the run left them — scans the same
    pairs as the oracle, which are the tree's."""
    num_keys = 1500
    cluster = Cluster(ClusterConfig(num_cns=3, clients_per_cn=2, seed=9,
                                    cache_bytes=1 << 22, rdwc=False))
    index = build_index(family, cluster)
    pairs = dataset(num_keys, key_space=num_keys * key_space_factor
                    if key_space_factor > 1 else 0, seed=9)
    index.bulk_load(pairs)
    loaded = [k for k, _v in pairs]
    top = loaded[-1]
    written = {k: {v} for k, v in pairs}
    clients = [index.client(ctx) for ctx in cluster.clients()]
    writers, scanners = clients[:3], clients[3:]
    leaves = len(index.leaf_addrs())
    problems = []

    def check(start, count, result):
        keys = [k for k, _v in result]
        if (len(result) > count or any(k < start for k in keys)
                or any(a >= b for a, b in zip(keys, keys[1:]))):
            problems.append(("order", start, count, keys))
        problems.extend(("value", k, v) for k, v in result
                        if v not in written.get(k, ()))
        if keys:  # loaded keys are never deleted: none may be skipped
            inside = [k for k in loaded if start <= k <= keys[-1]]
            if len(keys) < count:  # ran off the end of the tree
                inside = [k for k in loaded if k >= start]
            if set(inside) - set(keys):
                problems.append(("skipped", start, count,
                                 sorted(set(inside) - set(keys))[:5]))

    def writer(client, lane):
        rng = random.Random(lane)
        for i in range(120):
            if i % 2:  # sequential: splits the rightmost leaf
                key = top + 1 + i * len(writers) + lane
            else:  # anywhere (sparse: between loaded keys — hops)
                key = rng.randrange(1, top)
            written.setdefault(key, set()).add(key)
            yield from client.insert(key, key)
            hot = rng.choice(loaded)
            written[hot].add(hot + lane + 1)
            yield from client.update(hot, hot + lane + 1)

    def scanner(client, seed):
        rng = random.Random(seed)
        for _ in range(60):
            start = rng.choice([1, rng.randrange(1, top + 50)])
            count = rng.randrange(1, 121)
            check(start, count, (yield from client.scan(start, count)))

    drive(cluster, *[writer(c, i) for i, c in enumerate(writers)],
          *[scanner(c, i) for i, c in enumerate(scanners)])
    assert not problems, problems[:3]
    assert len(index.leaf_addrs()) > leaves + 2  # the writers split leaves

    truth = index.collect_items()
    rng = random.Random(family)
    probes = [(1, 100), (top - 30, 100)] + [
        (rng.randrange(1, top + 50), rng.randrange(1, 121))
        for _ in range(12)]
    results = []

    def compare(client):
        for start, count in probes:
            shared = yield from client.scan(start, count)
            oracle = yield from oracle_scan(client, start, count)
            results.append((shared, oracle, [pair for pair in truth
                                             if pair[0] >= start][:count]))

    drive(cluster, *[compare(client) for client in clients])
    assert len(results) == len(clients) * len(probes)
    for shared, oracle, expected in results:
        assert shared == oracle == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_a_stale_parent_cannot_skip_a_split_off_leaf(family):
    """A leaf in the *middle* of a cached parent splits: the parent's
    next child is no longer the next leaf, and a first batch taken from
    it on trust (as the per-family loops took it) skips the new one."""
    cluster = Cluster(ClusterConfig(num_cns=2, clients_per_cn=1, seed=3,
                                    cache_bytes=1 << 22))
    index = build_index(family, cluster)
    loaded = list(range(10, 6001, 10))
    index.bulk_load([(k, k) for k in loaded])
    writer, reader = (index.client(ctx) for ctx in cluster.clients())
    leaves = len(index.leaf_addrs())
    out = []

    def scan():
        out.append((yield from reader.scan(2900, 300)))

    def split_the_middle():
        for key in range(3001, 3400, 2):
            yield from writer.insert(key, key)

    drive(cluster, scan())  # caches the parents on the reader's CN
    drive(cluster, split_the_middle())
    assert len(index.leaf_addrs()) > leaves
    drive(cluster, scan())
    truth = [pair for pair in index.collect_items() if pair[0] >= 2900][:300]
    assert out[1] == truth and out[0] != truth


def test_first_batch_is_sized_from_the_parent_pivots():
    """``_scan_batch`` takes the leaf holding the key, then children
    while the pairs expected so far fall short of *count*: the share of
    the first leaf's pivot range at or above the key, a running-mean
    leaf for each further child."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = build_index("chime", cluster)
    index.bulk_load([(k, k) for k in range(1, 4001)])
    client = index.client(next(iter(cluster.clients())))
    per_leaf = int(index.config.bulk_load_factor * index.config.span)  # 44
    assert client._leaf_keys == pytest.approx(
        index.config.bulk_load_factor * index.config.span)  # the seed: 44.8
    refs = {}

    def locate(key):
        refs[key] = yield from client._locate_leaf(key)

    first = 10 * per_leaf + 1  # the first key of the eleventh leaf
    drive(cluster, locate(first), locate(first + per_leaf // 2))
    sizes = [len(client._scan_batch(refs[first], first, count))
             for count in (1, per_leaf, per_leaf + 1, 100, 3 * per_leaf)]
    assert sizes == [1, 1, 2, 3, 3]
    half = first + per_leaf // 2  # half the first leaf's range is left
    sizes = [len(client._scan_batch(refs[half], half, count))
             for count in (1, per_leaf // 2, per_leaf // 2 + 1, 100)]
    assert sizes == [1, 1, 2, 3]
    # Never fewer than the leaf holding the key, never past the parent.
    ref = refs[first]
    assert client._scan_batch(ref, first, 10**6) == [ref.leaf_addr] + list(
        ref.parent.children[ref.parent_index + 1:ref.parent.count])
