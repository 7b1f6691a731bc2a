"""Unit tests for the simulated RDMA verb layer and NIC model."""

import pytest

from repro.errors import MemoryAccessError
from repro.memory import MemoryNode, ChunkAllocator, addr_mn, make_addr
from repro.rdma import Nic, NicSpec, RdmaQp, WIRE_OVERHEAD
from repro.rdma.verbs import _Read
from repro.sim import Engine


def make_fabric(num_mns=1, region_size=1 << 20, spec=None, torn=True):
    engine = Engine()
    mns = {i: MemoryNode(engine, i, region_size, nic_spec=spec)
           for i in range(num_mns)}
    qp = RdmaQp(engine, mns, torn_writes=torn)
    return engine, mns, qp


def run(engine, gen):
    """Drive one client coroutine to completion, returning its value."""
    holder = []

    def wrapper():
        value = yield from gen
        holder.append(value)

    engine.process(wrapper())
    engine.run()
    return holder[0] if holder else None


class TestNicModel:
    def test_small_messages_are_iops_bound(self):
        spec = NicSpec(bandwidth=12.5e9, iops=100e6)
        assert spec.service_time(8) == pytest.approx(1.0 / 100e6)

    def test_large_messages_are_bandwidth_bound(self):
        spec = NicSpec(bandwidth=12.5e9, iops=100e6)
        expected = (4096 + WIRE_OVERHEAD) / 12.5e9
        assert spec.service_time(4096) == pytest.approx(expected)

    def test_crossover_point(self):
        spec = NicSpec(bandwidth=12.5e9, iops=100e6)
        crossover = 12.5e9 / 100e6 - WIRE_OVERHEAD  # 85 bytes
        assert spec.service_time(int(crossover) - 10) == pytest.approx(1e-8)
        assert spec.service_time(int(crossover) + 50) > 1e-8


class TestReadWrite:
    def test_write_then_read_roundtrip(self):
        engine, mns, qp = make_fabric()
        addr = make_addr(0, 4096)

        def client():
            yield from qp.write(addr, b"chime")
            data = yield from qp.read(addr, 5)
            return data

        assert run(engine, client()) == b"chime"

    def test_read_takes_at_least_two_latencies(self):
        spec = NicSpec(latency=1e-6)
        engine, mns, qp = make_fabric(spec=spec)

        def client():
            yield from qp.read(make_addr(0, 0), 8)

        run(engine, client())
        assert engine.now >= 2e-6

    def test_stats_accumulate(self):
        engine, mns, qp = make_fabric()
        addr = make_addr(0, 1024)

        def client():
            yield from qp.write(addr, b"x" * 100)
            yield from qp.read(addr, 100)
            yield from qp.cas(make_addr(0, 0), 0, 1)

        run(engine, client())
        assert qp.stats.rtts == 3
        assert qp.stats.reads == 1
        assert qp.stats.writes == 1
        assert qp.stats.atomics == 1
        assert qp.stats.bytes_read == 100
        assert qp.stats.bytes_written == 100

    def test_read_batch_is_one_rtt(self):
        engine, mns, qp = make_fabric()

        def client():
            payloads = yield from qp.read_batch(
                [(make_addr(0, 64), 8), (make_addr(0, 128), 8)])
            return payloads

        payloads = run(engine, client())
        assert len(payloads) == 2
        assert qp.stats.rtts == 1
        assert qp.stats.reads == 2

    def test_batch_faster_than_sequential_reads(self):
        def elapsed(batched):
            engine, mns, qp = make_fabric()

            def client():
                if batched:
                    yield from qp.read_batch(
                        [(make_addr(0, 64 * i), 32) for i in range(8)])
                else:
                    for i in range(8):
                        yield from qp.read(make_addr(0, 64 * i), 32)

            run(engine, client())
            return engine.now

        assert elapsed(batched=True) < elapsed(batched=False)

    def test_write_batch_lands_all_payloads(self):
        engine, mns, qp = make_fabric()

        def client():
            yield from qp.write_batch([
                (make_addr(0, 64), b"aaaa"),
                (make_addr(0, 128), b"bbbb"),
            ])
            first = yield from qp.read(make_addr(0, 64), 4)
            second = yield from qp.read(make_addr(0, 128), 4)
            return first, second

        assert run(engine, client()) == (b"aaaa", b"bbbb")

    def test_unknown_mn_raises(self):
        engine, mns, qp = make_fabric()

        def client():
            yield from qp.read(make_addr(7, 0), 8)

        with pytest.raises(Exception):
            run(engine, client())


class TestAtomics:
    def test_cas_roundtrip(self):
        engine, mns, qp = make_fabric()
        addr = make_addr(0, 512)

        def client():
            old, ok = yield from qp.cas(addr, 0, 42)
            assert ok and old == 0
            old, ok = yield from qp.cas(addr, 0, 99)
            return old, ok

        old, ok = run(engine, client())
        assert (old, ok) == (42, False)

    def test_concurrent_cas_exactly_one_winner(self):
        engine, mns, qp_a = make_fabric()
        qp_b = RdmaQp(engine, mns)
        addr = make_addr(0, 512)
        wins = []

        def client(qp, tag):
            _old, ok = yield from qp.cas(addr, 0, 1)
            if ok:
                wins.append(tag)

        engine.process(client(qp_a, "a"))
        engine.process(client(qp_b, "b"))
        engine.run()
        assert len(wins) == 1

    def test_masked_cas_returns_full_word(self):
        engine, mns, qp = make_fabric()
        addr = make_addr(0, 512)

        def client():
            yield from qp.write(addr, (0xBEEF0000_00000000).to_bytes(8, "little"))
            old, ok = yield from qp.masked_cas(
                addr, compare=0, swap=1, compare_mask=1,
                swap_mask=0xFFFFFFFFFFFFFFFF)
            return old, ok

        old, ok = run(engine, client())
        assert ok
        assert old == 0xBEEF0000_00000000

    def test_faa_returns_old(self):
        engine, mns, qp = make_fabric()
        addr = make_addr(0, 512)

        def client():
            first = yield from qp.faa(addr, 5)
            second = yield from qp.faa(addr, 5)
            return first, second

        assert run(engine, client()) == (0, 5)


class TestTornWrites:
    def test_large_write_can_be_observed_torn(self):
        """A reader sampling mid-transfer sees a mix of old and new bytes."""
        spec = NicSpec(bandwidth=1e6, iops=1e6, latency=1e-6)  # slow: wide window
        engine, mns, qp_w = make_fabric(spec=spec)
        qp_r = RdmaQp(engine, mns)
        addr = make_addr(0, 4096)
        size = 64 * 16
        observations = []

        def writer():
            yield from qp_w.write(addr, b"\x00" * size)
            yield from qp_w.write(addr, b"\xFF" * size)

        def reader():
            # Sample repeatedly while the second write is in flight.
            for _ in range(200):
                data = yield from qp_r.read(addr, size)
                observations.append(data)

        engine.process(writer())
        engine.process(reader())
        engine.run()
        torn = [d for d in observations if 0 < d.count(0xFF) < size]
        assert torn, "expected at least one torn observation"

    def test_torn_disabled_writes_are_atomic(self):
        spec = NicSpec(bandwidth=1e6, iops=1e6, latency=1e-6)
        engine, mns, qp_w = make_fabric(spec=spec, torn=False)
        qp_w._torn_writes = False
        qp_r = RdmaQp(engine, mns, torn_writes=False)
        addr = make_addr(0, 4096)
        size = 64 * 16
        observations = []

        def writer():
            yield from qp_w.write(addr, b"\xFF" * size)

        def reader():
            for _ in range(100):
                data = yield from qp_r.read(addr, size)
                observations.append(data)

        engine.process(writer())
        engine.process(reader())
        engine.run()
        for data in observations:
            assert data.count(0xFF) in (0, size)

    def test_final_state_always_complete(self):
        engine, mns, qp = make_fabric()
        addr = make_addr(0, 4096)
        payload = bytes(range(256)) * 4

        def client():
            yield from qp.write(addr, payload)

        run(engine, client())
        engine.run()  # drain any pending chunk applications
        assert mns[0].mem_read(addr, len(payload)) == payload


class TestRpcAllocation:
    def test_chunk_allocator_amortizes_rpcs(self):
        engine, mns, qp = make_fabric(region_size=1 << 22)
        alloc = ChunkAllocator(qp, 0, chunk_size=1 << 16)
        addrs = []

        def client():
            for _ in range(100):
                addr = yield from alloc.alloc(512)
                addrs.append(addr)

        run(engine, client())
        assert len(addrs) == 100
        assert len(set(addrs)) == 100
        # 100 * 512 bytes out of 64 KB chunks => exactly 1 RPC.
        assert alloc.rpc_count == 1
        assert all(addr_mn(a) == 0 for a in addrs)

    def test_chunk_exhaustion_triggers_new_rpc(self):
        engine, mns, qp = make_fabric(region_size=1 << 22)
        alloc = ChunkAllocator(qp, 0, chunk_size=4096)

        def client():
            for _ in range(10):
                yield from alloc.alloc(1024)

        run(engine, client())
        assert alloc.rpc_count >= 3

    def test_rpc_charges_mn_cpu(self):
        engine, mns, qp = make_fabric()

        def client():
            yield from qp.rpc(0, ("alloc_chunk", 4096))

        run(engine, client())
        assert mns[0].cpu.served == 1


# -- verb timelines ----------------------------------------------------------

#: Round numbers: 2 us one way, 1 us per small NIC message (IOPS-bound).
ROUND_NIC = NicSpec(bandwidth=1e9, iops=1e6, latency=2e-6)
LINE = make_addr(0, 4096)  # cache-line aligned


def round_fabric(cn_nic=False):
    engine = Engine()
    mns = {0: MemoryNode(engine, 0, 1 << 20, nic_spec=ROUND_NIC)}
    cn = Nic(engine, ROUND_NIC, name="cn0") if cn_nic else None
    return engine, mns[0], RdmaQp(engine, mns, cn_nic=cn)


class TestErrorsReachTheCaller:
    """What the memory effect raises is thrown into the issuing coroutine
    at the position the effect occupies — never out of ``Engine.run``."""

    BAD = {"unknown MN": make_addr(7, 0),
           "out of range": make_addr(0, (1 << 20) - 4)}

    @pytest.mark.parametrize("cn_nic", [False, True])
    @pytest.mark.parametrize("where", sorted(BAD))
    @pytest.mark.parametrize("verb", ["read", "write", "cas"])
    def test_memory_access_error_is_catchable(self, verb, where, cn_nic):
        engine, mn, qp = round_fabric(cn_nic)
        addr = self.BAD[where]
        issue = {"read": lambda: qp.read(addr, 8),
                 "write": lambda: qp.write(addr, b"x" * 8),
                 "cas": lambda: qp.cas(addr, 0, 1)}[verb]
        caught = []

        def client():
            try:
                yield from issue()
            except MemoryAccessError as exc:
                caught.append((engine.now, str(exc)))
            # The engine, the queue pair and the NICs are still usable.
            yield from qp.write(LINE, b"ok")
            return (yield from qp.read(LINE, 2))

        assert run(engine, client()) == b"ok"
        assert len(caught) == 1
        if where == "out of range":
            # Raised where the effect sits: after the request hop and
            # its rx slice (and the CN NIC's tx slice, if modelled).
            assert caught[0][0] >= ROUND_NIC.latency + 1e-6

    def test_later_request_of_a_batch_fails_where_it_is_resolved(self):
        engine, mn, qp = round_fabric()
        caught = []

        def client():
            try:
                yield from qp.write_batch([(LINE, b"landed"),
                                           (make_addr(7, 0), b"lost")])
            except MemoryAccessError:
                caught.append(engine.now)

        run(engine, client())
        # The first WRITE landed (3 us in); the second was resolved there.
        assert caught == [pytest.approx(3e-6)]
        assert mn.mem_read(LINE, 6) == b"landed"
        assert qp.stats.writes == 1


class TestTimelineAsAnEvent:
    def test_inside_all_of_and_any_of(self):
        """A verb timeline is an ordinary child of ``all_of`` (the id
        predates the deletion of ``any_of``)."""
        engine, mn, qp = round_fabric()
        mn.mem_write(LINE, b"abcdefgh")
        got = {}

        def client():
            got["all"] = yield engine.all_of(
                [_Read(qp, [(LINE, 4)]), _Read(qp, [(LINE + 4, 4)])])

        run(engine, client())
        assert got["all"] == [[b"abcd"], [b"efgh"]]


class TestTornLanding:
    def test_read_between_two_chunk_slices_sees_half_a_write(self):
        engine, mn, qp_w = round_fabric()
        qp_r = RdmaQp(engine, {0: mn})
        seen = []

        def writer():
            yield from qp_w.write(LINE, b"\xFF" * 128)

        def reader():
            yield engine.timeout(0.5e-6)  # arrives during the first slice
            seen.append((yield from qp_r.read(LINE, 128)))

        engine.process(writer())
        engine.process(reader())
        engine.run()
        # FIFO rx queue: chunk 1, the READ's request, chunk 2.
        assert seen == [b"\xFF" * 64 + bytes(64)]
        assert mn.mem_read(LINE, 128) == b"\xFF" * 128
