"""Golden + property tests for the calendar-queue event loop.

The load-bearing guarantee of the queue swap: the calendar queue and
the legacy binary heap produce **byte-identical event sequences** — not
just equal counts — for every registry family.  The golden tests run
identically seeded clusters on the production calendar queue and on the
:class:`~tests.oracles.HeapQueue` oracle (injected by object) with the
engine's ``event_log`` enabled and compare the full ``(time, type)``
sequences, plus every observable metric.

The property tests race :class:`~repro.sim.engine.CalendarQueue`
against a plain ``heapq`` reference on seeded workloads chosen to cross
tick boundaries, trigger width adaptation rebuilds, and exercise the
far-future tick heap.
"""

import heapq
import random

import pytest

from repro.bench.runner import build_index, load_index
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.registry import family_names, get_family
from repro.sched import launch_clients
from repro.sim import CalendarQueue, Engine, Interrupted
from repro.workloads.ycsb import WORKLOADS, WorkloadContext, dataset
from tests.oracles import HeapQueue

NUM_KEYS = 300
OPS = 30
SEED = 11


def _golden_run(index_name: str, workload: str, monkeypatch,
                heap_oracle: bool, chime_overrides=None, **cluster_fields):
    """One fully seeded run; returns observables.

    The production path (``Cluster`` -> ``Engine()``) runs untouched;
    with *heap_oracle* the ``Engine`` that ``Cluster`` constructs is
    swapped for one draining a :class:`HeapQueue`.  *cluster_fields*
    override :class:`ClusterConfig` defaults and *chime_overrides*
    :class:`ChimeConfig` ones (``tests/test_golden_families.py`` pins
    non-default knobs with the same recipe).
    """
    config = ClusterConfig(num_cns=2, clients_per_cn=2, seed=SEED,
                           **cluster_fields)
    with monkeypatch.context() as patch:
        if heap_oracle:
            patch.setattr("repro.cluster.cluster.Engine",
                          lambda: Engine(queue=HeapQueue()))
        cluster = Cluster(config)
    assert type(cluster.engine._queue) is (
        HeapQueue if heap_oracle else CalendarQueue)
    index = build_index(index_name, cluster, chime_overrides=chime_overrides)
    pairs = dataset(NUM_KEYS, key_space=0, seed=SEED)
    spec = WORKLOADS[workload]
    context = WorkloadContext(spec, [k for k, _ in pairs], seed=SEED,
                              theta=0.99)
    context.expected_insert_budget = 64
    load_index(index, pairs, workload, context)
    cluster.engine.event_log = log = []
    run = launch_clients(cluster, index, context, OPS, OPS // 10,
                         depth=config.pipeline_depth)
    cluster.run()
    return {
        "log": log,
        "events": cluster.engine.events_processed,
        "now": cluster.engine.now,
        "ops": run.ops_completed,
        "latencies": run.latencies,
        "traffic": cluster.traffic_totals(),
    }


class TestCalendarGoldenEquality:
    @pytest.mark.parametrize("index_name", sorted(family_names()))
    def test_calendar_matches_heap_event_sequence(self, index_name,
                                                  monkeypatch):
        # Point-only families (no range scans) run the read-only mix.
        workload = "A" if get_family(index_name).supports_scan else "C"
        heap = _golden_run(index_name, workload, monkeypatch,
                           heap_oracle=True)
        calendar = _golden_run(index_name, workload, monkeypatch,
                               heap_oracle=False)
        assert heap["log"]
        assert calendar["log"] == heap["log"]
        assert calendar["events"] == heap["events"]
        assert calendar["now"] == heap["now"]
        assert calendar["ops"] == heap["ops"]
        assert calendar["latencies"] == heap["latencies"]
        assert calendar["traffic"] == heap["traffic"]


def _drain(queue, bound=float("inf")):
    out = []
    while True:
        entry = queue.pop_due(bound)
        if entry is None:
            return out
        out.append(entry)


class TestCalendarQueueProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_pop_order_matches_heapq_reference(self, seed):
        rng = random.Random(seed)
        queue = CalendarQueue()
        reference = []
        # Magnitudes spanning sub-tick bursts to far-future stragglers,
        # so pushes hit the current tick, dense buckets, and the
        # sparse tick heap.
        for sequence in range(2000):
            scale = rng.choice([1e-9, 1e-7, 1e-6, 1e-4, 1e-1, 2.0])
            entry = (rng.random() * scale, sequence, None)
            queue.push(entry)
            heapq.heappush(reference, entry)
        assert len(queue) == len(reference)
        popped = _drain(queue)
        assert popped == [heapq.heappop(reference)
                          for _ in range(len(reference))]
        assert len(queue) == 0

    def test_interleaved_push_pop_stays_ordered(self):
        rng = random.Random(99)
        queue = CalendarQueue()
        reference = []
        now = 0.0
        for sequence in range(3000):
            if reference and rng.random() < 0.45:
                expect = heapq.heappop(reference)
                got = queue.pop_due(float("inf"))
                assert got == expect
                now = got[0]
            else:
                entry = (now + rng.random() * rng.choice([1e-7, 1e-3]),
                         sequence, None)
                queue.push(entry)
                heapq.heappush(reference, entry)
        assert _drain(queue) == [heapq.heappop(reference)
                                 for _ in range(len(reference))]

    def test_pop_due_respects_bound(self):
        queue = CalendarQueue()
        for sequence, when in enumerate([1e-6, 2e-6, 5e-6]):
            queue.push((when, sequence, None))
        assert [e[0] for e in _drain(queue, bound=2e-6)] == [1e-6, 2e-6]
        assert len(queue) == 1

    def test_width_adapts_under_dense_load(self):
        queue = CalendarQueue()
        start = queue.width
        rng = random.Random(5)
        # ~60 entries per initial-width tick across >256 ticks: past the
        # upper target band for a full adaptation period, so the queue
        # must narrow its width.
        entries = sorted((rng.random() * 1e-3, sequence, None)
                         for sequence in range(60000))
        for entry in entries:
            queue.push(entry)
        assert _drain(queue) == entries
        assert queue.width < start


class TestTimeoutCancel:
    def test_cancelled_timeout_never_fires_nor_counts(self):
        engine = Engine()
        fired = []
        timer = engine.timeout(5e-6)
        timer.callbacks.append(lambda event: fired.append(event))
        keeper = engine.timeout(9e-6)
        timer.cancel()
        assert timer.cancelled
        engine.run()
        assert not fired
        assert keeper.triggered
        # The tombstone is discarded without being counted as an event.
        assert engine.events_processed == 1

    def test_cancel_after_trigger_is_refused(self):
        engine = Engine()
        timer = engine.timeout(1e-6)
        engine.run()
        timer.cancel()
        assert not timer.cancelled


class TestInterruptDetaches:
    def test_interrupt_clears_stale_wait_target(self):
        engine = Engine()
        gate = engine.event()
        resumed = []

        def waiter():
            try:
                yield gate
                resumed.append("normal")
            except Interrupted:
                yield engine.timeout(5e-6)
                resumed.append("after-interrupt")

        process = engine.process(waiter())
        engine.timeout(1e-6).callbacks.append(
            lambda event: process.interrupt("test"))
        # The interrupted process must be detached: firing the stale
        # target later cannot resume it a second time.
        engine.timeout(2e-6).callbacks.append(
            lambda event: gate.succeed())
        engine.run()
        assert resumed == ["after-interrupt"]
