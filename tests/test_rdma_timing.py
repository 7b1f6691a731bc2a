"""Quantitative tests of the NIC queueing model — the substitution that
stands in for the paper's 100 Gbps testbed must actually exhibit the
bandwidth-bound and IOPS-bound regimes its figures rely on."""

import pytest

from repro.memory import MemoryNode, make_addr
from repro.memory.node import RPC_SERVICE_TIME
from repro.rdma import Nic, NicSpec, RdmaQp, WIRE_OVERHEAD
from repro.rdma.ops import (ATOMIC_PAYLOAD, RPC_REQUEST_BYTES,
                            RPC_RESPONSE_BYTES)
from repro.rdma.verbs import ATOMIC_PENALTY
from repro.sim import Engine


def saturate(spec, payload, clients=32, ops=100, verb="read"):
    """Aggregate Mops of a closed loop of identical verbs at one MN."""
    engine = Engine()
    mn = MemoryNode(engine, 0, 1 << 22, nic_spec=spec)
    mns = {0: mn}
    completed = [0]

    def client(offset):
        qp = RdmaQp(engine, mns)
        for _ in range(ops):
            if verb == "read":
                yield from qp.read(make_addr(0, offset), payload)
            elif verb == "write":
                yield from qp.write(make_addr(0, offset), b"x" * payload)
            else:
                yield from qp.cas(make_addr(0, offset), 0, 0)
            completed[0] += 1

    for i in range(clients):
        engine.process(client(64 + 128 * i))
    engine.run()
    return completed[0] / engine.now


class TestSaturationRegimes:
    SPEC = NicSpec(bandwidth=1e9, iops=2e6, latency=1e-6)

    def test_small_reads_hit_the_iops_cap(self):
        rate = saturate(self.SPEC, payload=16)
        assert rate == pytest.approx(self.SPEC.iops, rel=0.1)

    def test_large_reads_hit_the_bandwidth_cap(self):
        payload = 4096
        rate = saturate(self.SPEC, payload=payload)
        expected = self.SPEC.bandwidth / (payload + WIRE_OVERHEAD)
        assert rate == pytest.approx(expected, rel=0.1)

    def test_crossover_regimes(self):
        """Below the crossover (bw/iops - overhead = 460 B here) payload
        growth is free; above it, cost grows linearly with size — the
        §3.2.3 argument for why 8-entry neighborhoods are affordable."""
        small = saturate(self.SPEC, payload=16)
        medium = saturate(self.SPEC, payload=128)
        large = saturate(self.SPEC, payload=2048)
        larger = saturate(self.SPEC, payload=4096)
        # An 8x size growth below the crossover costs nothing.
        assert small == pytest.approx(medium, rel=0.02)
        # Above the crossover, 2x the size halves the throughput.
        assert large / larger == pytest.approx(
            (4096 + WIRE_OVERHEAD) / (2048 + WIRE_OVERHEAD), rel=0.1)

    def test_writes_saturate_like_reads(self):
        read_rate = saturate(self.SPEC, payload=2048, verb="read")
        write_rate = saturate(self.SPEC, payload=2048, verb="write")
        assert write_rate == pytest.approx(read_rate, rel=0.15)

    def test_atomics_pay_the_penalty(self):
        cas_rate = saturate(self.SPEC, payload=8, verb="cas")
        read_rate = saturate(self.SPEC, payload=8, verb="read")
        assert cas_rate == pytest.approx(read_rate / ATOMIC_PENALTY,
                                         rel=0.15)


class TestLatencyUnderLoad:
    def test_unloaded_latency_is_two_propagations_plus_service(self):
        spec = NicSpec(bandwidth=1e12, iops=1e9, latency=5e-6)
        engine = Engine()
        mn = MemoryNode(engine, 0, 1 << 20, nic_spec=spec)
        qp = RdmaQp(engine, {0: mn})
        times = []

        def client():
            start = engine.now
            yield from qp.read(make_addr(0, 64), 64)
            times.append(engine.now - start)

        engine.process(client())
        engine.run()
        assert times[0] == pytest.approx(2 * spec.latency, rel=0.05)

    def test_queueing_delay_grows_with_load(self):
        spec = NicSpec(bandwidth=1e8, iops=1e5, latency=1e-6)

        def p99(clients):
            engine = Engine()
            mn = MemoryNode(engine, 0, 1 << 20, nic_spec=spec)
            mns = {0: mn}
            lats = []

            def client(off):
                qp = RdmaQp(engine, mns)
                for _ in range(30):
                    begin = engine.now
                    yield from qp.read(make_addr(0, off), 256)
                    lats.append(engine.now - begin)

            for i in range(clients):
                engine.process(client(64 + 128 * i))
            engine.run()
            lats.sort()
            return lats[int(len(lats) * 0.99)]

        assert p99(16) > 2 * p99(1)


class TestDoorbellBatching:
    def test_batch_saves_round_trips_not_service(self):
        spec = NicSpec(bandwidth=1e9, iops=1e6, latency=20e-6)
        engine = Engine()
        mn = MemoryNode(engine, 0, 1 << 20, nic_spec=spec)
        qp = RdmaQp(engine, {0: mn})
        durations = {}

        def batched():
            start = engine.now
            yield from qp.read_batch([(make_addr(0, 64 + 128 * i), 64)
                                      for i in range(8)])
            durations["batched"] = engine.now - start

        def sequential():
            start = engine.now
            for i in range(8):
                yield from qp.read(make_addr(0, 64 + 128 * i), 64)
            durations["sequential"] = engine.now - start

        engine.process(batched())
        engine.run()
        engine.process(sequential())
        engine.run()
        # Sequential pays 8 round trips of 40us; the batch pays one.
        assert durations["sequential"] > 7 * 2 * 20e-6
        assert durations["batched"] < 2 * 2 * 20e-6 + 8 / spec.iops * 2


A, B = make_addr(0, 4096), make_addr(0, 8192)


def closed_form_cases(s):
    """verb -> (issue(qp), MN-side service, CN-NIC service) for a NIC whose
    message service time is ``s(payload_bytes)``."""
    atomic = s(ATOMIC_PAYLOAD)
    cas = (atomic * ATOMIC_PENALTY + atomic, 2 * atomic)
    rpc_wire = s(RPC_REQUEST_BYTES) + s(RPC_RESPONSE_BYTES)
    return {
        "read": (lambda qp: qp.read(A, 2000),
                 s(0) + s(2000), s(0) + s(2000)),
        "read_batch": (lambda qp: qp.read_batch([(A, 2000), (B, 500)]),
                       2 * s(0) + s(2000) + s(500), s(0) + s(2500)),
        "write": (lambda qp: qp.write(A, b"x" * 2000),
                  s(2000), s(2000) + s(0)),
        "write_batch": (lambda qp: qp.write_batch([(A, b"x" * 2000),
                                                   (B, b"y" * 8)]),
                        s(2000) + s(8), s(2008) + s(0)),
        "cas": (lambda qp: qp.cas(A, 0, 1), *cas),
        "masked_cas": (lambda qp: qp.masked_cas(A, 0, 1, 1, 1), *cas),
        "faa": (lambda qp: qp.faa(A, 1), *cas),
        "rpc": (lambda qp: qp.rpc(0, ("alloc_chunk", 64)),
                rpc_wire + RPC_SERVICE_TIME, rpc_wire),
        "rpc(service_time=)": (
            lambda qp: qp.rpc(0, ("alloc_chunk", 64), service_time=9e-6),
            rpc_wire + 9e-6, rpc_wire),
    }


class TestClosedFormLatency:
    """An unloaded verb takes two propagations plus its service slices —
    per kind, with and without the CN NIC (every slice is serial on a
    one-lane NIC, so a batch pays each verb's slice in turn)."""

    SPEC = NicSpec(bandwidth=1e9, iops=1e6, latency=3e-6)

    @pytest.mark.parametrize("cn_nic", [False, True])
    @pytest.mark.parametrize("verb", sorted(closed_form_cases(lambda n: 0.0)))
    def test_latency_is_two_hops_plus_service(self, verb, cn_nic):
        spec = self.SPEC
        engine = Engine()
        mn = MemoryNode(engine, 0, 1 << 20, nic_spec=spec)
        cn = Nic(engine, spec, name="cn0") if cn_nic else None
        qp = RdmaQp(engine, {0: mn}, cn_nic=cn)
        issue, mn_service, cn_service = closed_form_cases(
            spec.service_time)[verb]

        def client():
            yield from issue(qp)

        engine.process(client())
        engine.run()
        expected = 2 * spec.latency + mn_service + cn_service * cn_nic
        assert engine.now == pytest.approx(expected, rel=1e-12)
