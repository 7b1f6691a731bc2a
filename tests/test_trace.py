"""Tests for the verb-level tracer."""

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.chime import ChimeIndex
from repro.memory import make_addr
from repro.rdma.trace import QpTracer


def test_raw_verbs_traced():
    cluster = Cluster(ClusterConfig(region_bytes=1 << 22))
    ctx = cluster.cns[0].clients[0]
    tracer = QpTracer(ctx.qp)
    addr = make_addr(0, 4096)

    def gen():
        with tracer:
            yield from ctx.qp.write(addr, b"abc")
            yield from ctx.qp.read(addr, 3)
            yield from ctx.qp.cas(addr + 64, 0, 1)
        yield from ctx.qp.read(addr, 3)  # outside: not traced

    cluster.engine.process(gen())
    cluster.run()
    kinds = [r.kind for r in tracer.records]
    assert kinds == ["write", "read", "cas"]
    summary = tracer.summary()
    assert summary["round_trips"] == 3
    assert summary["bytes"] == 3 + 3 + 8


def test_index_operation_budget_matches_table1():
    """A traced warm-cache CHIME search costs exactly one READ."""
    cluster = Cluster(ClusterConfig(region_bytes=1 << 24,
                                    cache_bytes=1 << 22))
    index = ChimeIndex(cluster)
    index.bulk_load([(k, k) for k in range(1, 2001)])
    client = index.client(cluster.cns[0].clients[0])
    tracer = QpTracer(client.qp)

    def gen():
        yield from client.search(700)  # warm traversal
        with tracer:
            yield from client.search(701)

    cluster.engine.process(gen())
    cluster.run()
    summary = tracer.summary()
    assert summary["round_trips"] <= 2  # 1 read (+1 if speculation missed)
    assert all(r.kind in ("read", "read_batch") for r in tracer.records)


def test_tracer_is_reentrant():
    """Nested start/stop pairs stack; stop without start is a no-op; the
    QP's verb methods are never shadowed."""
    from repro.obs.bus import BUS
    cluster = Cluster(ClusterConfig(region_bytes=1 << 22))
    qp = cluster.cns[0].clients[0].qp
    tracer = QpTracer(qp)
    tracer.stop()  # no matching start(): must not raise
    assert not tracer.active

    tracer.start()
    tracer.start()  # nested
    assert tracer.active and BUS.active
    tracer.stop()
    assert tracer.active  # outer start still open
    tracer.stop()
    assert not tracer.active and not BUS.active
    assert "read" not in vars(qp)  # no per-instance monkey-patching


def test_two_tracers_coexist():
    """Tracers on different QPs each see only their own verbs."""
    cluster = Cluster(ClusterConfig(region_bytes=1 << 22))
    ctx_a = cluster.cns[0].clients[0]
    ctx_b = cluster.cns[0].clients[1]
    tracer_a = QpTracer(ctx_a.qp)
    tracer_b = QpTracer(ctx_b.qp)
    addr = make_addr(0, 4096)

    def gen():
        with tracer_a, tracer_b:
            yield from ctx_a.qp.write(addr, b"abc")
            yield from ctx_b.qp.read(addr, 3)

    cluster.engine.process(gen())
    cluster.run()
    assert [r.kind for r in tracer_a.records] == ["write"]
    assert [r.kind for r in tracer_b.records] == ["read"]
