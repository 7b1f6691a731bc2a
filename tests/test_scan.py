"""The shared scan against the loops it replaced, kept here as oracles.

``FamilyClientBase._scan`` runs the routing's ``_scan_once``: the B-link
tree's (``BTreeClientBase``) or the model-routed leaf group's
(``ModelRoutedClientBase``), each decoding whole leaves by its leaf
format.  The oracle reads leaves as the per-family loops used to — one
whole leaf per READ, decoded through the per-entry accessors, CHIME
leaves checked with every per-entry oracle of ``tests/oracles.py``
(NV, EV, and the *hashed* hopscotch bitmap of all homes) — and routes a
tree scan by the sibling chain alone, which no stale cached parent can
mislead, and a group scan along ``leaf_addrs`` and each synonym chain,
one table at a time.  (The old tree loops also fetched a first batch from
the parent, sized ``count // (span // 2) + 2``, without checking that
batch against the chain: a parent that predated a split skipped the new
leaf.  The shared loop validates it;
``test_a_stale_parent_cannot_skip_a_split_off_leaf`` is that case.)
"""

import random
from functools import partial
from itertools import product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.btree_base import BTreeClientBase
from repro.core.family import FamilyClientBase
from repro.core.leaf_ops import place_items
from repro.core.node_layout import MERGE_GAP, LeafLayout
from repro.core.nodes import LeafNodeView, SortedNodeView
from repro.errors import TornReadError
from repro.hashing.hopscotch import default_hash
from repro.layout import StripedSpan
from repro.layout.versions import raw_span
from repro.memory import NULL_ADDR
from repro.registry import build_index
from repro.workloads.ycsb import dataset
from tests.oracles import (
    check_entry_evs,
    check_hopscotch_bitmap,
    check_nv_uniform,
    collect_leaf_nv,
    drive_legal,
)

TREES = ("chime", "chime-indirect", "sherman", "marlin")
FAMILIES = TREES + ("rolex", "rolex-indirect", "chime-learned")


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


def oracle_table(client, addr, key):
    """:func:`oracle_leaf` of the leaf at *addr*, read until not torn."""
    while True:
        raw = yield from client.qp.read(addr, client.layout.raw_size)
        try:
            return oracle_leaf(client, raw, key)
        except TornReadError:
            continue


def oracle_scan(client, key, count):
    """Up to *count* pairs from *key* on, one leaf at a time: along the
    sibling chain, or along ``leaf_addrs`` and each synonym chain."""
    results = []
    if is_model_routed(client.index):
        leaf_index, _read = yield from client._locate(key)
        for base in client.index.leaf_addrs[leaf_index:]:
            if len(results) >= count:
                break
            addr = base
            while addr != NULL_ADDR:
                pairs, addr = yield from oracle_table(client, addr, key)
                results.extend(pairs)
    else:
        ref = yield from client._locate_leaf(key)
        addr = ref.leaf_addr
        while addr != NULL_ADDR and len(results) < count:
            pairs, addr = yield from oracle_table(client, addr, key)
            results.extend(pairs)
    results.sort()
    del results[count:]
    if client.index.registry_family.indirect_values:
        results = yield from client._resolve_indirect(results)
    return results


def is_model_routed(index):
    return isinstance(index.leaf_addrs, list)


def tables(index):
    """Leaves, and with model routing their synonym tables: what the
    writers grow."""
    if is_model_routed(index):
        return sum(index.synonym_chain_lengths())
    return len(index.leaf_addrs())


def drive(cluster, *gens):
    for gen in gens:
        cluster.engine.process(gen)
    cluster.run()


@pytest.mark.parametrize("key_space_factor", [1, 16], ids=["dense", "sparse"])
@pytest.mark.parametrize("family", FAMILIES)
def test_shared_scan_equals_the_whole_leaf_oracle(family, key_space_factor,
                                                  monkeypatch):
    """Scanners race inserting / updating writers (hops, node rewrites,
    splits) and, on dense keys, writers deleting keys inside the later
    probes' ranges; every answer is legal for the history.  Once the
    writers are done, each client — its CN's cached parents as stale as
    the run left them — scans the same pairs as the oracle, which are
    the tree's.  A CHIME tree reads a scan's first and last leaves only
    in the entries its candidate keys can live in (§4.4) — on dense
    keys, often — and reads on where a deleted key leaves the candidates
    short; the oracle reads every leaf whole."""
    scan_batch = BTreeClientBase._scan_batch
    read_leaves = FamilyClientBase._read_scan_leaves
    seen = {"first": 0, "last": 0, "short": 0}  # leaves read partly
    cut = {}  # client -> [leaf] its scan's last batch read cut at the end

    def counted_batch(client, ref, key, count):
        addrs, plans = scan_batch(client, ref, key, count)
        seen["first"] += plans[0] is not None
        seen["last"] += len(plans) > 1 and plans[-1] is not None
        cut[client] = None
        return addrs, plans

    def counted_reads(client, addrs, key, plans=None):
        seen["short"] += addrs == cut.get(client)  # read on: whole
        last = plans[-1] if plans else None
        cut[client] = addrs[-1:] if last is not None and last.cut else None
        return read_leaves(client, addrs, key, plans)

    monkeypatch.setattr(BTreeClientBase, "_scan_batch", counted_batch)
    monkeypatch.setattr(FamilyClientBase, "_read_scan_leaves", counted_reads)
    num_keys = 1500
    cluster = Cluster(ClusterConfig(num_cns=3, clients_per_cn=2, seed=9,
                                    cache_bytes=1 << 22, rdwc=False))
    index = build_index(family, cluster)
    pairs = dataset(num_keys, key_space=num_keys * key_space_factor
                    if key_space_factor > 1 else 0, seed=9)
    index.bulk_load(pairs)
    loaded = [k for k, _v in pairs]
    top = loaded[-1]
    clients = [index.client(ctx) for ctx in cluster.clients()]
    writers, scanners = clients[:3], clients[3:]
    leaves = tables(index)
    rng = random.Random(family)
    probes = [(1, 100), (top - 30, 100)] + [
        (rng.randrange(1, top + 50), rng.randrange(1, 121))
        for _ in range(12)]
    # Dense keys: keys the probes' candidates miss, near each range's end
    # (a short last leaf) and inside it (a short first leaf).
    doomed = sorted({key for start, count in probes
                     for key in (start + count - 2, start + count // 2)
                     if key < top} if key_space_factor == 1 else ())

    def writer(client, lane):
        rng = random.Random(lane)
        for i in range(120):
            if i % 2:  # sequential: splits the rightmost leaf
                key = top + 1 + i * len(writers) + lane
            else:  # anywhere (sparse: between loaded keys — hops)
                key = rng.randrange(1, top)
                while key in doomed:
                    key = rng.randrange(1, top)
            yield from client.insert(key, key)
            hot = rng.choice(loaded)
            yield from client.update(hot, hot + lane + 1)
            if i < len(doomed) and i % len(writers) == lane:
                yield from client.delete(doomed[i])

    def scanner(client, seed):
        rng = random.Random(seed)
        for _ in range(60):
            start = rng.choice([1, rng.randrange(1, top + 50)])
            yield from client.scan(start, rng.randrange(1, 121))

    drive_legal(cluster, index, pairs,
                *[writer(c, i) for i, c in enumerate(writers)],
                *[scanner(c, i) for i, c in enumerate(scanners)])
    # The writers split leaves (the trees: 35 -> 39) and chain synonyms
    # (ROLEX: 125 -> 136; CHIME-Learned, whose 64-entry leaves keep
    # room, 35 -> 37).
    assert tables(index) > leaves + (1 if is_model_routed(index) else 2)

    truth = index.collect_items()
    assert not set(doomed) & {key for key, _value in truth}
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
    if family in ("chime", "chime-indirect") and key_space_factor == 1:
        # Partial first and last leaves, and short candidates read on,
        # really happened.
        assert min(seen.values()) > 0, seen
    elif family not in ("chime", "chime-indirect"):
        assert not any(seen.values())  # whole leaves: no pivots, or sorted


#: (op, args, answer) routed by a parent that predates the splits of
#: :func:`test_a_stale_parent_cannot_skip_a_split_off_leaf`: 3399 and
#: 3398 lie right of the split leaf's new high fence.
STALE_ROUTES = [("scan", (2900, 300), None), ("search", (3399,), 3399),
                ("update", (3399, 7), True), ("insert", (3398, 7), True)]


@pytest.mark.parametrize("family", TREES)
def test_a_stale_parent_cannot_skip_a_split_off_leaf(family):
    """A leaf in the *middle* of a cached parent splits: the parent's
    next child is no longer the next leaf, and a first batch taken from
    it on trust (as the per-family loops took it) skips the new one.  A
    search, update or insert of a key the splits moved right is routed
    by the same stale parent.  Each answers as the tree does, and each
    stale route drops the parent from its CN's cache exactly once
    (DESIGN §4 "Stale routes")."""
    for op, args, answer in STALE_ROUTES:
        cluster = Cluster(ClusterConfig(num_cns=2, clients_per_cn=1, seed=3,
                                        cache_bytes=1 << 22))
        index = build_index(family, cluster)
        index.bulk_load([(k, k) for k in range(10, 6001, 10)])
        writer, reader = (index.client(ctx) for ctx in cluster.clients())
        leaves = len(index.leaf_addrs())
        out = []

        def run(op, *args):
            out.append((yield from getattr(reader, op)(*args)))

        def split_the_middle():
            for key in range(3001, 3400, 2):
                yield from writer.insert(key, key)

        drive(cluster, run("scan", 2900, 300))  # caches the reader's parents
        drive(cluster, split_the_middle())
        assert len(index.leaf_addrs()) > leaves
        dropped = reader.ctx.cache.invalidations
        drive(cluster, run(op, *args))
        assert reader.ctx.cache.invalidations == dropped + 1, op
        items = index.collect_items()
        if op == "scan":
            truth = [pair for pair in items if pair[0] >= 2900][:300]
            assert out[1] == truth and out[0] != truth
        else:
            assert out[1] == answer, op
        if op in ("update", "insert"):
            assert (args[0], 7) in items, op


def test_first_batch_is_sized_from_the_parent_pivots():
    """``_scan_batch`` takes the leaf holding the key, then children
    while the pairs expected so far fall short of *count*: the share of
    the first leaf's pivot range at or above the key, a running-mean
    leaf for each further child.  On these dense keys that is the leaf
    holding the last candidate ``key + count - 1``, which ends the batch
    while it lies under the parent."""
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
    sizes = [len(client._scan_batch(refs[first], first, count)[0])
             for count in (1, per_leaf, per_leaf + 1, 100, 3 * per_leaf)]
    assert sizes == [1, 1, 2, 3, 3]
    half = first + per_leaf // 2  # half the first leaf's range is left
    sizes = [len(client._scan_batch(refs[half], half, count)[0])
             for count in (1, per_leaf // 2, per_leaf // 2 + 1, 100)]
    assert sizes == [1, 1, 2, 3]
    # Never fewer than the leaf holding the key, never past the parent.
    ref = refs[first]
    assert client._scan_batch(ref, first, 10**6)[0] == [
        ref.leaf_addr] + list(
        ref.parent.children[ref.parent_index + 1:ref.parent.count])


@pytest.mark.parametrize("family", ["rolex", "chime-learned"])
def test_a_scan_from_a_key_the_model_never_saw(family, monkeypatch):
    """The model's window misses the leaf covering an untrained start
    key: the fence walk finds that leaf and the scan goes on from it
    (the first batch, read for the window, is left behind).  That leaf
    holds keys below the start key too, so its pair count stays out of
    the batch rule's mean: only the whole base leaves after it feed it."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = build_index(family, cluster)
    keys = [*range(1, 2001), *range(10**6, 10**6 + 2001)]
    index.bulk_load([(key, key) for key in keys])
    client = index.client(next(iter(cluster.clients())))
    start, out, noted = 500_000, [], []
    monkeypatch.setattr(client, "_note_leaf_keys", noted.append)

    def scan():
        leaf_index, _read = yield from client._covering(start)
        out.append(leaf_index)
        out.append((yield from client.scan(start, 30)))

    drive(cluster, scan())
    leaf_index, result = out
    assert leaf_index not in index.candidate_leaves(start)
    assert result == [(key, key) for key in keys if key >= start][:30]
    after = index.leaf_addrs[leaf_index + 1:]
    assert noted and noted == [len(index._host_table(addr)[0])
                               for addr in after[:len(noted)]]


def neighbourhood(layout, home):
    """(entries, blocks) of *home*'s neighbourhood: bit *i* set for each
    entry *i* in it, bit *b* for each block *b* it reaches into."""
    entries = [(home + offset) % layout.span
               for offset in range(layout.neighborhood)]
    return (sum(1 << entry for entry in entries),
            sum(1 << block for block in
                {entry // layout.neighborhood for entry in entries}))


def check_candidate_read(layout, image, home_of, start, end, low, high,
                         whole, homes, entries, blocks):
    """The read of candidates [*start*, *end*) out of the raw leaf
    *image* of pivot range [*low*, *high*), whose whole-leaf decode is
    *whole*: the leaf whole (None) from ``span`` candidates on or once
    their *homes*' neighbourhoods — the *entries* and *blocks* bits —
    reach into every block; else every entry of *entries* and one
    replica, in READs at least ``MERGE_GAP`` raw bytes apart, answering
    for the candidates what the whole leaf answers.  Returns the read's
    raw length, or None."""
    read = layout.candidate_read(start, end, low, high, home_of)
    if (end - start >= layout.span
            or blocks == (1 << layout.num_blocks) - 1):
        assert read is None
        return None
    assert read.homes == homes and read.cut == (end < high)
    requests = read.rounds[0]

    def fetched(offset, length):
        raw_off, raw_len = raw_span(offset, length)
        return any(off <= raw_off and raw_off + raw_len <= off + size
                   for off, size in requests)

    assert all(fetched(layout.entry_offset(entry), layout.entry_size)
               for entry in range(layout.span) if entries >> entry & 1)
    assert read._replica_at % layout.block_size == 0
    assert fetched(read._replica_at, layout.replica_size)
    assert all(after - (off + size) >= MERGE_GAP for (off, size), (after, _)
               in zip(requests, requests[1:]))
    raw = b"".join(image[off:off + size] for off, size in requests)
    assert len(raw) == read.raw_len
    got = read.decode(raw, home_of)
    assert ([pair for pair in got.pairs(start) if pair[0] < end]
            == [pair for pair in whole.pairs(start) if pair[0] < end])
    assert got.sibling == whole.sibling
    return read.raw_len


def bulk_loaded_leaves():
    """A CHIME client and two bulk-loaded leaves of one parent, dense
    (44 keys) and sparse (44 keys x 100): (kind, image, whole-leaf
    decode, low, high) each."""
    cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
    index = build_index("chime", cluster)
    index.bulk_load([(k, k) for k in range(1, 2001)]
                    + [(k, k) for k in range(10**6, 10**6 + 440_000, 100)])
    client = index.client(next(iter(cluster.clients())))
    parent = next(node for _addr, node in index.internal_nodes()
                  if node.level == 1)
    leaves = []
    for kind, at in (("dense", 10), ("sparse", parent.count - 10)):
        image = index._host_read(parent.children[at], client.layout.raw_size)
        leaves.append((kind, image, client.layout.full_shape().decode(
            image[1:], client.home_of), parent.pivots[at],
            parent.pivots[at + 1]))
    return client, leaves


def candidate_wire(ranges):
    """The raw bytes of each partial read of a bulk-loaded leaf, for the
    candidate ranges ``ranges(low, high)`` yields, each one key wider
    than the last (:func:`check_candidate_read` holds each read to the
    whole leaf)."""
    client, leaves = bulk_loaded_leaves()
    layout, home_of = client.layout, client.home_of
    wire = {}
    for kind, image, whole, low, high in leaves:
        homes, entries, blocks = set(), 0, 0
        wire[kind] = []
        for start, end, new in ranges(low, high):
            homes.add(home_of(new))
            entries, blocks = map(or_, (entries, blocks),
                                  neighbourhood(layout, home_of(new)))
            raw_len = check_candidate_read(layout, image, home_of, start,
                                           end, low, high, whole, homes,
                                           entries, blocks)
            if raw_len is not None:
                wire[kind].append(raw_len)
    assert client._candidate_read(high - 1, high, low, high).homes == {
        home_of(high - 1)}
    return wire


def test_a_first_leaf_reads_the_entries_of_its_candidate_homes():
    """Every start key of a bulk-loaded leaf's pivot range [low, high):
    the scan's first leaf can hold only the candidates [start, high), so
    its read covers the neighbourhood of every candidate's home, carries
    a replica and answers what the whole leaf answers; from ``span``
    candidates on it is the whole leaf.  The homes accumulate from
    *high* down, one hash per start."""
    wire = candidate_wire(lambda low, high: (
        (start, high, start) for start in range(high - 1, low - 1, -1)))
    # Pinned: the raw bytes of each partial read, by start key (a whole
    # leaf's READ is 1,252 bytes, one neighbourhood 156 or 157).  The
    # dense leaf's candidates reach into every block until 11 starts
    # from its end, the sparse leaf's until 12.
    assert {kind: raw[::-1] for kind, raw in wire.items()} == {
        "dense": [936, 881, 761, 688, 688, 605, 532, 376, 340, 303, 156],
        "sparse": [881, 725, 725, 660, 660, 660, 587, 587, 431, 394, 303,
                   157]}


def test_a_last_leaf_reads_the_entries_of_its_candidate_homes():
    """Every end key of a bulk-loaded leaf's pivot range [low, high):
    a scan whose candidates end inside its last leaf reads it only for
    [low, end), as the first leaf is read for its candidates."""
    wire = candidate_wire(lambda low, high: (
        (low, end, end - 1) for end in range(low + 1, high)))
    # Pinned as above, by end key: the dense leaf's candidates reach
    # into every block from its 8th key on, the sparse leaf's from its
    # 14th.
    assert wire == {
        "dense": [157, 331, 506, 506, 579, 736, 754],
        "sparse": [156, 312, 468, 486, 559, 661, 807, 807, 844, 844, 844,
                   844, 844]}


@settings(max_examples=60, deadline=None)
@given(neighborhood=st.sampled_from([2, 8, 16]),
       blocks=st.sampled_from([2, 4]), fence_keys=st.booleans(),
       width=st.integers(1, 96), load=st.floats(0.1, 0.9),
       seed=st.integers(0, 2**32))
def test_a_first_leaf_read_equals_the_whole_leaf(neighborhood, blocks,
                                                 fence_keys, width, load,
                                                 seed):
    """Random leaves of keys in [low, high), 1- and 2-byte bitmaps, with
    or without fence keys, the last candidate's neighbourhood wrapping
    past the table's end: at every start, for candidates up to *high*
    (a first leaf) and up to a random end below it (a range ending
    inside the leaf), the candidate read answers what the whole leaf
    answers (:func:`check_candidate_read`), and a layout without
    replicas reads the leaf whole."""
    rng = random.Random(seed)
    layouts = [LeafLayout(span=neighborhood * blocks,
                          neighborhood=neighborhood, fence_keys=fence_keys,
                          replicated=replicated)
               for replicated in (True, False)]
    span = layouts[0].span
    home_of = partial(default_hash, capacity=span)
    low = rng.randrange(1, 10**9)
    high = low + width
    while home_of(high - 1) + neighborhood <= span:
        high += 1
    items = [(key, rng.randrange(1, 2**63)) for key in rng.sample(
        range(low, high), min(high - low, int(span * load) + 1))]
    ends = (high, rng.randrange(low + 1, high + 1))
    for layout, end in product(layouts, ends):
        keys, values, bitmaps, _spilled = place_items(items, layout)
        image = layout.encode_image(keys, values, bitmaps,
                                    rng.randrange(1, 2**48), low, high,
                                    rng.randrange(16))
        whole = layout.full_shape().decode(image[1:], home_of)
        homes, entries, blocks = set(), 0, 0
        for start in range(end - 1, low - 1, -1):
            if not layout.replicated:
                assert layout.candidate_read(start, end, low, high,
                                             home_of) is None
                continue
            homes.add(home_of(start))
            entries, blocks = map(or_, (entries, blocks),
                                  neighbourhood(layout, home_of(start)))
            check_candidate_read(layout, image, home_of, start, end, low,
                                 high, whole, homes, entries, blocks)
