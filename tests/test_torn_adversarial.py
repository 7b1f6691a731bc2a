"""Adversarial torn-write campaigns: a deliberately slow NIC stretches
every WRITE's landing window so lock-free readers race half-written
nodes constantly.  The three-level synchronization must (a) never let a
wrong value escape and (b) actually fire — the retry counters prove the
detection path ran, not that the race never happened."""

import random

import pytest

from repro import obs
from repro.baselines.sherman import ShermanIndex
from repro.cluster import Cluster
from repro.config import ChimeConfig, ClusterConfig
from repro.core.chime import LOCKLINE_FENCE_HIGH, ChimeClient, ChimeIndex
from repro.core.node_layout import LeafLayout, ReadShape
from repro.core.nodes import LeafNodeView
from repro.errors import TornReadError
from repro.layout import StripedSpan, decode_key, versions
from repro.memory.region import CACHE_LINE
from repro.obs import BUS
from repro.rdma.nic import NicSpec
from tests.oracles import assert_legal, drive, drive_legal, writers_and_readers

#: Slow + fat-window NIC: multi-microsecond transfer windows per node.
SLOW_NIC = NicSpec(bandwidth=5e7, iops=2e6, latency=0.5e-6)


def slow_cluster(clients=8, seed=11):
    return Cluster(ClusterConfig(
        num_cns=1, num_mns=1, clients_per_cn=clients,
        cache_bytes=1 << 22, region_bytes=1 << 25,
        mn_nic=SLOW_NIC, seed=seed, rdwc=False))


def _between_tens(client, lane, i):
    key = 10 * (i * 4 + lane) + lane % 9 + 1  # never % 10 == 0
    return client.insert(key, key)


def _a_loaded_ten(rng):
    return rng.randrange(1, 401) * 10


class TestChimeUnderTearing:
    def test_readers_vs_hop_writers(self):
        cluster = slow_cluster()
        index = ChimeIndex(cluster, ChimeConfig(bulk_load_factor=0.85))
        # Sparse loaded keys (multiples of 10): writers insert the keys
        # in between, hitting the very leaves the readers are reading —
        # constant hops and splits landing over wide torn windows.
        pairs = [(k, k * 10) for k in range(10, 4001, 10)]
        index.bulk_load(pairs)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        drive_legal(cluster, index, pairs, *writers_and_readers(
            clients, 150, _between_tens, 250, _a_loaded_ten))

    def _ambushed_readers_vs_hop_writers(self, monkeypatch):
        """The campaign above plus an ambush reader and an ambush
        scanner; returns how often the bitmap check (level 3) fired, and
        how often it failed a scan's partial first-leaf read.

        Free-running readers never sample a hop between its entry
        writes (the campaign above trips only NV checks), so the bitmap
        check would go unexercised.  The ambusher makes the race
        certain: the moment the first write of a hop lands in a leaf it
        searches the keys that hop is moving, so its READs are served
        between the hop's later entry writes — when a moved key is in
        neither its old nor its new entry, and every entry is whole (NV
        and EV see nothing).  At the same moment the scanner starts a
        scan a few keys below the leaf's high fence: the leaf is the
        scan's first, read only in the neighbourhoods of its few
        candidates' homes (§4.4), and a hop in flight inside one of their
        neighbourhoods must fail level 3 and be re-read, never returned.
        """
        cluster = slow_cluster(clients=10)
        index = ChimeIndex(cluster, ChimeConfig(bulk_load_factor=0.85))
        loaded = range(10, 4001, 10)
        index.bulk_load([(k, k * 10) for k in loaded])
        clients = [index.client(ctx) for ctx in cluster.clients()]
        scanner, ambusher = clients.pop(), clients.pop()
        layout = index.leaf_layout
        raw_size = layout.raw_size
        hops = []  # (leaf address, keys it moves) of hops not yet landed
        torn_bitmaps = []
        torn_partial = []  # level 3 failed a partial first-leaf read
        ambushing = []
        scanning = []

        apply_plan = ChimeClient._apply_plan

        def spying_apply_plan(client, view, plan, *args):
            moved = [view.entry(src).key for src, _dst in plan.moves]
            if moved:  # announced just before, by hopscotch.displacement
                hops[-1] = (hops[-1][0], moved)
            return apply_plan(client, view, plan, *args)

        monkeypatch.setattr(ChimeClient, "_apply_plan", spying_apply_plan)
        scan_leaf = ChimeClient._scan_leaf

        def spying_scan_leaf(client, raw, key, *first):
            seen = len(torn_bitmaps)
            try:
                return scan_leaf(client, raw, key, *first)
            except TornReadError:
                if first and len(torn_bitmaps) > seen:
                    torn_partial.append(key)
                raise

        monkeypatch.setattr(ChimeClient, "_scan_leaf", spying_scan_leaf)

        def ambush(keys):
            for _ in range(4):  # spread over the hop's landing window
                for key in keys:
                    yield from ambusher.search(key)
            ambushing.clear()

        def scan_ambush(leaf_addr, keys):
            # A few candidates below the leaf's high fence, down to one
            # hashed to the home of a key the hop moves if there is one.
            high = decode_key(mn.mem_read(
                leaf_addr + layout.lock_offset + LOCKLINE_FENCE_HIGH, 8))
            moved = set(map(index.home_of, keys))
            start = next((key for key in range(high - 1, high - 6, -1)
                          if index.home_of(key) in moved), high - 3)
            for _ in range(3):
                yield from scanner.scan(start, 8)
            scanning.clear()

        mn = cluster.mns[0]
        original_write = mn.mem_write

        def ambushing_write(addr, data):
            original_write(addr, data)
            if hops and not ambushing:
                leaf_addr, keys = hops[-1]
                if leaf_addr <= addr < leaf_addr + raw_size:
                    del hops[:]
                    ambushing.append(cluster.engine.process(ambush(keys)))
                    if not scanning:
                        scanning.append(cluster.engine.process(
                            scan_ambush(leaf_addr, keys)))

        mn.mem_write = ambushing_write
        watches = [
            BUS.subscribe(lambda event: event.data["moves"] and hops.append(
                (event.data["leaf_addr"], [])),
                kinds=["hopscotch.displacement"]),
            BUS.subscribe(lambda event: event.data["level"] == 3
                          and torn_bitmaps.append(event), kinds=["sync.torn"]),
        ]
        try:
            drive_legal(cluster, index, [(k, k * 10) for k in loaded],
                        *writers_and_readers(clients, 150, _between_tens,
                                               250, _a_loaded_ten))
        finally:
            for watch in watches:
                watch.unsubscribe()
        return len(torn_bitmaps), len(torn_partial)

    def test_ambushed_readers_vs_hop_writers(self, monkeypatch):
        # Clean, and not vacuously: the read shapes' level 3 fired, also
        # on scans' partial first-leaf reads.
        torn, torn_partial = self._ambushed_readers_vs_hop_writers(
            monkeypatch)
        assert torn > 0 and torn_partial > 0

    def test_readers_need_the_bitmap_check(self, monkeypatch):
        """Plant a bug: the read shape's bitmap check passes anything —
        loaded keys caught mid-hop then read as absent, so the campaign
        must fail."""
        monkeypatch.setattr(ReadShape, "_check_bitmap",
                            lambda self, payload, keys, hash_home, homes: None)
        with pytest.raises(AssertionError):
            self._ambushed_readers_vs_hop_writers(monkeypatch)

    def test_fat_entry_updates_force_detected_tearing(self):
        """A surgically timed reader samples a 512-byte entry while its
        update is mid-landing (engine paused between cache-line chunks),
        so the EV check *must* fire — the retry counter proves the
        detector ran — and the returned value must still be committed.

        (Free-running reader/writer loops phase-lock through the shared
        NIC queue and rarely collide mid-chunk; pausing the engine pins
        the race deterministically.)
        """
        cluster = slow_cluster(clients=2, seed=23)
        index = ChimeIndex(cluster, ChimeConfig(value_size=512))
        index.bulk_load([(k, 7) for k in range(1, 33)])
        writer_client = index.client(cluster.cns[0].clients[0])
        reader_client = index.client(cluster.cns[0].clients[1])
        engine = cluster.engine
        mn = cluster.mns[0]

        # Count the update's chunk landings as they happen.
        landings = []
        original_write = mn.mem_write

        def counting_write(addr, data):
            landings.append((engine.now, len(data)))
            return original_write(addr, data)

        mn.mem_write = counting_write

        # Warm the reader's hotspot buffer (speculative path) first.
        warm = []

        def warm_reader():
            value = yield from reader_client.search(5)
            warm.append(value)

        engine.process(warm_reader())
        engine.run()
        assert warm == [7]

        def updater():
            yield from writer_client.update(5, 1000)

        engine.process(updater())
        # Advance the clock until a few (but not all) of the entry's
        # ~9 chunks have landed, then freeze.
        deadline = engine.now
        while len([l for l in landings if l[1] >= 28]) < 3:
            deadline += 0.2e-6
            engine.run(until=deadline)
        results = []

        def reader():
            value = yield from reader_client.search(5)
            results.append(value)

        engine.process(reader())
        engine.run()  # run everything to completion
        assert results and results[0] in (7, 1000), results
        # The mid-chain sample must have tripped a consistency check.
        assert cluster.traffic_totals().retries > 0

    def test_update_storm_values_always_committed(self):
        """Concurrent updates of one neighborhood: a reader may see the
        old or the new value of a key, never a torn hybrid."""
        cluster = slow_cluster(clients=8, seed=3)
        index = ChimeIndex(cluster)
        pairs = sorted((k, 1_000_000) for k in range(1, 65))
        index.bulk_load(pairs)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        drive_legal(cluster, index, pairs, *writers_and_readers(
            clients, 100, lambda c, lane, i: c.update((lane * 7) % 64 + 1,
                                                      1_000_000 + lane),
            300, lambda rng: rng.randrange(1, 65)))

    #: Loaded keys sit at BASE, BASE + 10, ...; everything below BASE is
    #: free for writers to grow the leftmost leaf into.
    BASE = 100_000

    def _scanners_vs_hop_writers(self):
        """Scanners racing inserting/updating writers; asserts that every
        scan is legal for the history, and that the scanners' whole-leaf
        NV check fired.

        Free-running scans are tx-bound and phase-lock with the writers'
        rx-side chunk landings, so they rarely sample a node write
        mid-flight.  An ambush scanner makes the race certain: it starts
        the moment the third line of a rewrite of the leftmost leaf (a
        split's left half, rewritten in place) has landed, so its READ
        is served between two later chunks of the same write.
        """
        base, loaded_count = self.BASE, 100
        cluster = slow_cluster(clients=9, seed=11)
        index = ChimeIndex(cluster, ChimeConfig(bulk_load_factor=0.85))
        loaded = [base + 10 * k for k in range(loaded_count)]
        index.bulk_load([(k, k * 10) for k in loaded])
        clients = [index.client(ctx) for ctx in cluster.clients()]
        writers, scanners, ambusher = clients[:4], clients[4:8], clients[8]

        def writer(client, lane):
            rng = random.Random(lane)
            for i in range(200):
                if i % 2:  # below every key so far: splits the leftmost leaf
                    key = base - 1 - (i * len(writers) + lane)
                else:      # between loaded keys: hops inside their leaves
                    key = base + 10 * rng.randrange(loaded_count) + 1 + lane
                yield from client.insert(key, key)
                hot = rng.choice(loaded)
                yield from client.update(hot, hot * 10 + lane + 1)

        def scanner(client, seed):
            rng = random.Random(seed)
            for _ in range(150):
                start = rng.choice(
                    [1, rng.randrange(base - 1000, base + 10 * loaded_count)])
                yield from client.scan(start, rng.randrange(20, 121))

        mn = cluster.mns[0]
        leftmost = index.leaf_addrs()[0]
        original_write = mn.mem_write
        ambushing = []

        def ambush():
            yield from ambusher.scan(1, 40)
            ambushing.clear()

        def ambushing_write(addr, data):
            original_write(addr, data)
            if (addr == leftmost + 2 * CACHE_LINE and len(data) == CACHE_LINE
                    and not ambushing):
                ambushing.append(cluster.engine.process(ambush()))

        mn.mem_write = ambushing_write
        drive_legal(cluster, index, [(k, k * 10) for k in loaded],
                    *[writer(c, i) for i, c in enumerate(writers)],
                    *[scanner(c, i) for i, c in enumerate(scanners)])
        assert len(index.leaf_addrs()) > 3  # the writers did split leaves
        # Scan-only clients retry for one reason: a torn whole-leaf image.
        assert sum(c.qp.stats.retries for c in scanners + [ambusher]) > 0

    def test_scanners_vs_hop_writers(self):
        self._scanners_vs_hop_writers()

    def test_scanners_need_the_leaf_nv_kernel(self, monkeypatch):
        """Plant a bug: the whole-leaf shape checks nothing, so a
        half-landed node write is decoded as it lies — the campaign must
        fail.

        (Blinding level 1 alone cannot fail it any more: a node write
        resets every EV and re-places every key, so the halves of a torn
        one also disagree at levels 2 and 3 — on six pinned splits, all
        21 landings each.  ``TestPinnedScans`` plants those two levels'
        bugs one at a time.)
        """
        monkeypatch.setattr(versions, "NV_OF_BYTE", bytes(256))
        monkeypatch.setattr(versions, "EV_OF_BYTE", bytes(256))
        monkeypatch.setattr(ReadShape, "_check_image_bitmaps",
                            lambda self, payload, keys, hash_home: None)
        with pytest.raises(AssertionError):
            self._scanners_vs_hop_writers()


class TestPinnedScans:
    """A scan's whole-leaf READ served *between* two landings of one
    write batch — pinned there, because free-running scanners never
    arrive between the two chunks of an 18-byte entry WRITE or between
    two entry WRITEs of one hop (the campaigns above trip NV only).

    The writer runs alone and the leaf's raw image is recorded after
    every chunk that lands in it; each image is then served to a scan
    as its first READ of that leaf (a re-read gets live memory).  An
    RDMA READ racing a WRITE may return exactly such an image."""

    OLD, NEW = 0x1111111111111111, 0xEEEEEEEEEEEEEEEE

    @staticmethod
    def _landings(cluster, index, op):
        """Run *op*; ``(leaf address, raw leaf image)`` after each
        chunk landing inside a leaf that existed before it ran."""
        mn = cluster.mns[0]
        size = index.leaf_layout.raw_size
        leaves = index.leaf_addrs()
        images = []

        def recording_write(addr, data):
            type(mn).mem_write(mn, addr, data)
            for leaf in leaves:
                if leaf <= addr < leaf + size:
                    images.append((leaf, mn.mem_read(leaf, size)))

        mn.mem_write = recording_write
        try:
            drive(cluster, op)
        finally:
            del mn.mem_write
        return images

    @staticmethod
    def _pinned_scan(cluster, index, scanner, leaf, image, start, count):
        """``scanner.scan(start, count)`` whose first READ of *leaf*
        returns *image*."""
        mn = cluster.mns[0]
        size = index.leaf_layout.raw_size
        pending = [image]

        def pinned_read(addr, length):
            if pending and (addr, length) == (leaf, size):
                return pending.pop()
            return type(mn).mem_read(mn, addr, length)

        out = []

        def scan():  # invoked after the write answered, not with it
            yield cluster.engine.timeout(1e-9)
            out.append((yield from scanner.scan(start, count)))

        mn.mem_read = pinned_read
        try:
            drive(cluster, scan())
        finally:
            del mn.mem_read
        assert not pending, "the scan never read the pinned leaf"
        return out[0]

    @staticmethod
    def _torn_levels():
        levels = []
        watch = BUS.subscribe(lambda event: levels.append(event.data["level"]),
                              kinds=["sync.torn"])
        return levels, watch

    def _scan_between_the_chunks_of_an_entry_write(self):
        """Update a key whose value word straddles two cache lines and
        scan at every landing; returns the torn levels seen.

        (``value_size=64``: the simulated NIC lands a WRITE of up to 64
        bytes whole, so the default 18-byte entry cannot tear.)"""
        cluster = slow_cluster(clients=2)
        index = ChimeIndex(cluster, ChimeConfig(value_size=64))
        loaded = [(k, self.OLD) for k in range(1, 401)]
        index.bulk_load(loaded)
        layout = index.leaf_layout
        ppl = CACHE_LINE - 1  # payload bytes per line
        writer, scanner = (index.client(ctx) for ctx in cluster.clients())
        leaf = index.leaf_addrs()[2]
        view = LeafNodeView(layout, StripedSpan(
            index._host_read(leaf, layout.raw_size)))
        key = next(
            key for pos, key, _value in view.items()
            if (layout.entry_offset(pos) + layout.entry_off_value) // ppl
            != (layout.entry_offset(pos) + layout.entry_off_value + 7) // ppl)
        start = min(k for k, _v in view.pairs())
        levels, watch = self._torn_levels()
        try:
            with obs.recording() as rec:
                images = self._landings(cluster, index,
                                        writer.update(key, self.NEW))
                assert len(images) >= 2  # one entry WRITE, landing in chunks
                for image_leaf, image in images:
                    self._pinned_scan(cluster, index, scanner, image_leaf,
                                      image, start, 30)
        finally:
            watch.unsubscribe()
        assert_legal(rec, loaded, index)
        return levels

    def test_scan_between_the_chunks_of_an_entry_write(self):
        # The value is whole, and not vacuously: level 2 (EV) fired.
        assert 2 in self._scan_between_the_chunks_of_an_entry_write()

    def test_pinned_scans_need_the_ev_check(self, monkeypatch):
        """Plant a bug: the whole-leaf shape drops its EV pairs, so the
        half-landed entry reads as whole and a value nobody wrote
        escapes."""
        real = LeafLayout.full_shape

        def without_ev_pairs(layout):
            shape = real(layout)
            shape._ev_entry = None
            return shape

        monkeypatch.setattr(LeafLayout, "full_shape", without_ev_pairs)
        with pytest.raises(AssertionError):
            self._scan_between_the_chunks_of_an_entry_write()

    def _scan_between_the_writes_of_a_hop(self, hops_wanted=4):
        """Insert between loaded keys until *hops_wanted* inserts have
        displaced entries, scanning at every landing of each; returns
        the torn levels seen."""
        cluster = slow_cluster(clients=2)
        index = ChimeIndex(cluster, ChimeConfig(bulk_load_factor=0.85))
        loaded = [(k, k * 10) for k in range(10, 4001, 10)]
        index.bulk_load(loaded)
        writer, scanner = (index.client(ctx) for ctx in cluster.clients())
        moves = []
        watches = [BUS.subscribe(
            lambda event: moves.append(event.data["moves"]),
            kinds=["hopscotch.displacement"])]
        levels, watch = self._torn_levels()
        watches.append(watch)
        hops = 0
        try:
            with obs.recording() as rec:
                for key in range(11, 4000, 10):
                    del moves[:]
                    images = self._landings(cluster, index,
                                            writer.insert(key, key))
                    if not any(moves) or len(dict(images)) != 1:
                        continue  # no displacement, or a split
                    hops += 1
                    keys = [k for k, _v in index.collect_items()]
                    start = keys[max(0, keys.index(key) - 40)]
                    for leaf, image in images:
                        self._pinned_scan(cluster, index, scanner, leaf,
                                          image, start, 90)
                    if hops == hops_wanted:
                        break
        finally:
            for watch in watches:
                watch.unsubscribe()
        assert hops == hops_wanted
        assert_legal(rec, loaded, index)
        return levels

    def test_scan_between_the_writes_of_a_hop(self):
        # No key twice, none missing, and level 3 (bitmaps) fired.
        assert 3 in self._scan_between_the_writes_of_a_hop()

    def test_pinned_scans_need_the_bitmap_check(self, monkeypatch):
        """Plant a bug: the whole-leaf shape's bitmap rule passes
        anything — a key caught mid-hop then shows twice or not at all."""
        monkeypatch.setattr(ReadShape, "_check_image_bitmaps",
                            lambda self, payload, keys, hash_home: None)
        with pytest.raises(AssertionError):
            self._scan_between_the_writes_of_a_hop()


class TestStaleCachedParent:
    def test_reads_every_committed_insert(self):
        """ROADMAP 1(a): sequential inserts split the rightmost leaf
        over and over; a client on another CN, whose cached parent
        predates all of it and has no next-child pointer for its last
        child, must still read, update and scan every committed key."""
        cluster = Cluster(ClusterConfig(num_cns=2, clients_per_cn=1,
                                        cache_bytes=1 << 22, seed=5))
        index = ChimeIndex(cluster)
        loaded = 2000
        index.bulk_load([(k, k) for k in range(1, loaded + 1)])
        writer, reader = (index.client(ctx) for ctx in cluster.clients())
        leaves = len(index.leaf_addrs())
        out = {}

        def run(name, client_op, keys):
            def ops():
                out[name] = []
                for key in keys:
                    out[name].append((yield from client_op(key)))
            drive(cluster, ops())
            return out[name]

        def grow(keys):  # the reader's CN caches the parent, then it ages
            assert run("warm", reader.search, [loaded]) == [loaded]
            run("insert", lambda key: writer.insert(key, key), keys)

        first = range(loaded + 1, loaded + 301)
        grow(first)
        assert len(index.leaf_addrs()) >= leaves + 5  # split repeatedly
        assert run("search", reader.search, first) == list(first)
        cluster.cns[1].cache.clear()
        second = range(first[-1] + 1, first[-1] + 301)
        grow(second)
        assert run("update", lambda key: reader.update(key, key + 1),
                   second[-3:]) == [True] * 3
        cluster.cns[1].cache.clear()
        third = range(second[-1] + 1, second[-1] + 301)
        grow(third)
        pairs, = run("scan", lambda key: reader.scan(key, 1000), [loaded - 4])
        assert [k for k, _v in pairs] == list(range(loaded - 4, third[-1] + 1))


class TestShermanUnderTearing:
    def test_node_rewrites_never_leak_torn_leaves(self):
        cluster = slow_cluster(clients=6, seed=17)
        index = ShermanIndex(cluster)
        pairs = [(k, k * 10) for k in range(1, 301)]
        index.bulk_load(pairs)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        drive_legal(cluster, index, pairs, *writers_and_readers(
            clients, 80, lambda c, lane, i: c.insert(10_000 + lane * 500 + i, i),
            200, lambda rng: rng.randrange(1, 301)))


class TestDetectionIsLoadBearing:
    def test_disabling_checks_would_corrupt(self):
        """Sanity for the test harness itself: with this NIC, torn
        states are genuinely observable at the raw verb level (so the
        index-level cleanliness above is earned, not vacuous)."""
        from repro.memory import MemoryNode, make_addr
        from repro.rdma import RdmaQp
        from repro.sim import Engine

        engine = Engine()
        mn = MemoryNode(engine, 0, 1 << 20, nic_spec=SLOW_NIC)
        mns = {0: mn}
        writer_qp = RdmaQp(engine, mns)
        reader_qp = RdmaQp(engine, mns)
        addr = make_addr(0, 4096)
        size = 64 * 20
        torn_seen = [0]

        def writer():
            for round_no in range(30):
                fill = bytes([round_no % 251 + 1]) * size
                yield from writer_qp.write(addr, fill)

        def reader():
            for _ in range(300):
                data = yield from reader_qp.read(addr, size)
                if len(set(data)) > 1:
                    torn_seen[0] += 1

        engine.process(writer())
        engine.process(reader())
        engine.run()
        assert torn_seen[0] > 0
