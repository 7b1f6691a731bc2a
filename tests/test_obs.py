"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro import obs
from repro.bench.runner import run_point
from repro.cli import main
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core import ChimeIndex
from repro.registry import build_index, family_names
from repro.obs import (
    BUS,
    EventBus,
    Histogram,
    MetricsCollector,
    Registry,
    Span,
    chrome_trace_events,
    flame_summary,
    render_chrome_trace,
)


class TestEventBus:
    def test_inactive_without_subscribers(self):
        bus = EventBus()
        assert not bus.active
        bus.emit("anything", 1.0, payload=1)  # silently dropped

    def test_active_is_a_plain_attribute_kept_by_subscriptions(self):
        bus = EventBus()
        assert "active" in vars(bus) and not hasattr(EventBus, "active")
        first = bus.subscribe(lambda e: None)
        second = bus.subscribe(lambda e: None)
        assert bus.active is True
        first.unsubscribe()
        assert bus.active is True  # one subscriber left
        second.unsubscribe()
        assert bus.active is False
        bus.unsubscribe(second)  # already detached: stays consistent
        assert bus.active is False

    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.emit("tick", 0.0)
        assert order == ["first", "second"]

    def test_kind_filtering(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.kind), kinds=("verb",))
        bus.emit("verb", 0.0, kind="read")
        bus.emit("cache.hit", 0.0)
        assert seen == ["verb"]

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(lambda e: seen.append(e.kind))
        sub.unsubscribe()
        sub.unsubscribe()
        bus.emit("tick", 0.0)
        assert not seen and not bus.active

    def test_self_unsubscribe_during_delivery(self):
        bus = EventBus()
        seen = []
        subs = {}

        def once(event):
            seen.append(event.time)
            subs["once"].unsubscribe()

        subs["once"] = bus.subscribe(once)
        bus.emit("tick", 1.0)
        bus.emit("tick", 2.0)
        assert seen == [1.0]

    def test_payload_may_reuse_kind_and_time_keys(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("verb", 3.0, kind="read", time="lunch")
        assert seen[0].kind == "verb" and seen[0].time == 3.0
        assert seen[0].data == {"kind": "read", "time": "lunch"}

    def test_fallback_clock(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("tick")
        bus.set_clock(lambda: 7.5)
        bus.emit("tick")
        assert [e.time for e in seen] == [0.0, 7.5]


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 9.0):
            hist.observe(value)
        # bounds are inclusive upper edges; last bucket is overflow
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.max == 9.0
        assert hist.mean == pytest.approx(3.0)

    def test_quantile_returns_bucket_upper_bound(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(3.0)
        assert hist.quantile(0.50) == 1.0
        assert hist.quantile(1.00) == 4.0

    def test_overflow_quantile_is_max(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 100.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_empty(self):
        hist = Histogram("h")
        assert hist.mean == 0.0 and hist.quantile(0.99) == 0.0


class TestRegistry:
    def test_snapshot_flattens_all_metric_types(self):
        registry = Registry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2.0)
        registry.histogram("lat", bounds=(10.0,)).observe(4.0)
        snap = registry.snapshot(prefix="obs.")
        assert snap["obs.hits"] == 3
        assert snap["obs.depth"] == 2.0
        assert snap["obs.lat.count"] == 1
        assert snap["obs.lat.p99"] == 10.0

    def test_collector_folds_events(self):
        bus = EventBus()
        collector = MetricsCollector()
        collector.attach(bus)
        bus.emit("verb", 0.0, kind="read", size=64)
        bus.emit("verb", 0.0, kind="read", size=64)
        bus.emit("cache.hit", 0.0)
        bus.emit("sync.torn", 0.0, level=3)
        bus.emit("hopscotch.displacement", 0.0, moves=2)
        collector.detach()
        bus.emit("cache.hit", 0.0)  # after detach: ignored
        snap = collector.registry.snapshot()
        assert snap["verb.read"] == 2
        assert snap["verb.bytes"] == 128
        assert snap["cache.hit"] == 1
        assert snap["sync.torn_l3"] == 1
        assert snap["hopscotch.displacement.count"] == 1

    def test_collector_folds_lock_recovery_events(self):
        bus = EventBus()
        collector = MetricsCollector()
        collector.attach(bus)
        bus.emit("lock.cas_fail", 0.0, addr=0x100, attempt=0)
        bus.emit("lock.cas_fail", 0.0, addr=0x100, attempt=1)
        bus.emit("lock.steal", 0.0, addr=0x100, victim=1, thief=2, epoch=3)
        bus.emit("lock.lease_expired", 0.0, addr=0x100, owner=1, epoch=2,
                 expired_us=10)
        bus.emit("lock.repair", 0.0, addr=0x100)
        bus.emit("lock.lease_overrun", 0.0, addr=0x100, epoch=2)
        collector.detach()
        snap = collector.registry.snapshot()
        assert snap["lock.cas_fail"] == 2
        assert snap["lock.steal"] == 1
        assert snap["lock.lease_expired"] == 1
        assert snap["lock.repair"] == 1
        assert snap["lock.lease_overrun"] == 1

    def test_collector_folds_sync_queue_events(self):
        bus = EventBus()
        collector = MetricsCollector()
        collector.attach(bus)
        bus.emit("sync.mode_switch", 0.0, addr=0x100, mode="pessimistic",
                 direction="up")
        bus.emit("sync.mode_switch", 0.0, addr=0x100, mode="optimistic",
                 direction="down")
        bus.emit("queue.enqueue", 0.0, addr=0x100, ticket=4, depth=3)
        bus.emit("queue.handoff", 0.0, addr=0x100, ticket=4, handoffs=1)
        bus.emit("queue.drop", 0.0, addr=0x100, ticket=2, by="cn1/c0")
        bus.emit("queue.wait_timeout", 0.0, addr=0x100, ticket=9,
                 attempts=32)
        collector.detach()
        snap = collector.registry.snapshot()
        assert snap["sync.mode_switch"] == 2
        assert snap["sync.mode_switch.up"] == 1
        assert snap["sync.mode_switch.down"] == 1
        assert snap["queue.enqueue"] == 1
        assert snap["queue.depth.count"] == 1
        assert snap["queue.depth.max"] == 3
        assert snap["queue.handoff"] == 1
        assert snap["queue.drop"] == 1
        assert snap["queue.wait_timeout"] == 1


def _spans_fixture():
    return [
        Span(client="cn0-c0", name="search", seq=1, level="op",
             begin=1e-6, end=9e-6, rtts=2),
        Span(client="cn0-c0", name="traverse", seq=1, level="phase",
             begin=1e-6, end=3e-6, rtts=0),
        Span(client="cn0-c0", name="leaf_read", seq=1, level="phase",
             begin=3e-6, end=9e-6, rtts=2),
    ]


class TestExport:
    def test_chrome_trace_golden(self):
        events = chrome_trace_events(_spans_fixture())
        assert events == [
            {"name": "search", "cat": "op", "ph": "X", "ts": 1.0,
             "dur": 8.0, "pid": 0, "tid": "cn0-c0",
             "args": {"seq": 1, "rtts": 2}},
            {"name": "traverse", "cat": "phase", "ph": "X", "ts": 1.0,
             "dur": 2.0, "pid": 0, "tid": "cn0-c0",
             "args": {"seq": 1, "rtts": 0}},
            {"name": "leaf_read", "cat": "phase", "ph": "X", "ts": 3.0,
             "dur": 6.0, "pid": 0, "tid": "cn0-c0",
             "args": {"seq": 1, "rtts": 2}},
        ]

    def test_document_round_trips_through_json(self):
        document = render_chrome_trace(_spans_fixture(),
                                       metadata={"figure": "test"})
        parsed = json.loads(json.dumps(document))
        assert parsed["displayTimeUnit"] == "ms"
        assert parsed["otherData"] == {"figure": "test"}
        assert len(parsed["traceEvents"]) == 3

    def test_flame_summary_orders_ops_first(self):
        text = flame_summary(_spans_fixture())
        lines = [l for l in text.splitlines()[2:] if l]
        assert lines[0].startswith("op")
        assert "search" in lines[0]
        # longest phase first among phases
        assert "leaf_read" in lines[1] and "traverse" in lines[2]


class TestSpans:
    def _run_searches(self, record=True):
        cluster = Cluster(ClusterConfig(region_bytes=1 << 24,
                                        cache_bytes=1 << 22))
        index = ChimeIndex(cluster)
        index.bulk_load([(k, k) for k in range(1, 2001)])
        client = index.client(cluster.cns[0].clients[0])

        def gen():
            for key in (700, 701, 702):
                yield from client.search(key)

        cluster.engine.process(gen())
        if record:
            with obs.recording() as recorder:
                cluster.run()
            return recorder
        cluster.run()
        return None

    def test_phases_nest_inside_op_under_simulated_time(self):
        recorder = self._run_searches()
        ops = recorder.ops()
        assert len(ops) == 3
        for trace in ops:
            assert trace.op.level == "op" and trace.op.name == "search"
            assert trace.op.duration > 0
            assert trace.phases, "op recorded without phases"
            for phase in trace.phases:
                assert trace.op.begin <= phase.begin <= phase.end \
                    <= trace.op.end
            # phase union never exceeds the op interval
            assert trace.phase_seconds <= trace.op.duration + 1e-12
            assert trace.coverage > 0.5

    def test_op_rtts_match_qp_accounting(self):
        recorder = self._run_searches()
        total_op_rtts = sum(t.op.rtts for t in recorder.ops())
        span_histogram_count = sum(
            1 for s in recorder.spans if s.level == "op")
        assert span_histogram_count == 3
        # warm-cache searches: >= 1 leaf read each
        assert total_op_rtts >= 3

    def test_bus_quiet_after_recording(self):
        self._run_searches()
        assert not BUS.active

    def test_recording_is_not_reentrant(self):
        recorder = obs.recording()
        with recorder:
            with pytest.raises(RuntimeError):
                recorder.__enter__()
        assert not BUS.active


class TestEveryFamilyEmitsOpSpans:
    """``_op`` lives in the family base, so every registered family gets
    one ``op`` span per operation — the precondition for deriving
    Table 1 from observation for all twelve indexes."""

    OPS = [("search", 300), ("update", 301), ("insert", 302),
           ("search", 302)]

    def _client(self, index_name):
        cluster = Cluster(ClusterConfig(num_cns=1, clients_per_cn=1))
        index = build_index(index_name, cluster)
        index.bulk_load([(k, k) for k in range(1, 401)])
        return cluster, index.client(cluster.cns[0].clients[0])

    @pytest.mark.parametrize("index_name", family_names())
    def test_n_ops_emit_n_op_spans(self, index_name):
        cluster, client = self._client(index_name)

        def gen():
            for name, key in self.OPS:
                args = (key,) if name == "search" else (key, 9)
                yield from getattr(client, name)(*args)

        cluster.engine.process(gen())
        with obs.recording() as recorder:
            cluster.run()
        op_spans = [s for s in recorder.spans if s.level == "op"]
        assert [s.name for s in op_spans] == [name for name, _ in self.OPS]
        assert all(s.rtts >= 1 and not s.error for s in op_spans)
        assert not BUS.active

    @pytest.mark.parametrize("index_name", family_names())
    def test_quiet_bus_costs_nothing(self, index_name):
        _cluster, client = self._client(index_name)
        assert not BUS.active
        sentinel = iter(())
        assert client._op("search", sentinel) is sentinel
        assert client._phase("traverse", sentinel) is sentinel
        assert client._obs_seq == 0


class TestIntegration:
    def test_ycsb_c_span_breakdown(self):
        """Per-op span durations equal the runner's measured latencies,
        and phase spans account for most of each op (YCSB-C, no RDWC so
        every op runs its own phases)."""
        config = ClusterConfig(num_cns=1, clients_per_cn=4,
                               cache_bytes=1 << 22,
                               region_bytes=1 << 26, rdwc=False)
        with obs.recording() as recorder:
            result = run_point("chime", "C", num_keys=2000,
                               ops_per_client=40, cluster_config=config)
        assert result.ops_completed == 160
        ops = recorder.ops()
        assert len(ops) == 160
        # every op span lies inside the run and has phase coverage
        measured = sorted(result.latencies_us)
        op_durations = sorted(t.op.duration_us for t in ops)
        # runner skips warmup ops for latency, so compare the common tail
        assert len(measured) <= len(op_durations)
        for latency in measured[-10:]:
            assert any(abs(latency - d) < 1e-6 for d in op_durations)
        with_phases = [t for t in ops if t.phases]
        assert len(with_phases) >= 0.9 * len(ops)
        mean_coverage = (sum(t.coverage for t in with_phases)
                         / len(with_phases))
        assert mean_coverage > 0.6
        # metrics snapshot landed in RunResult.notes
        assert result.notes.get("obs.verb.read", 0) > 0
        assert "obs.span.search.us.count" in result.notes

    def test_notes_empty_without_recording(self):
        config = ClusterConfig(num_cns=1, clients_per_cn=2,
                               cache_bytes=1 << 22,
                               region_bytes=1 << 26)
        result = run_point("chime", "C", num_keys=1000,
                           ops_per_client=20, cluster_config=config)
        assert not any(key.startswith("obs.") for key in result.notes)


class TestCliTrace:
    def test_run_trace_writes_chrome_json(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        assert main(["run", "fig16", "--trace", str(trace_file)]) == 0
        document = json.loads(trace_file.read_text())
        assert "traceEvents" in document  # fig16 is analytic: no spans

    def test_run_format_json(self, capsys):
        assert main(["run", "fig3d", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["rows"] and "max_load_factor" in document["rows"][0]

    def test_run_format_csv(self, capsys):
        assert main(["run", "fig3d", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[0] == "scheme"
        assert len(lines) > 1


class TestMetricsCache:
    def test_percentiles_track_appends(self):
        from repro.bench.metrics import RunResult
        result = RunResult(index_name="x", workload="C", num_clients=1,
                           ops_completed=3, elapsed_seconds=1.0,
                           latencies_us=[3.0, 1.0, 2.0])
        assert result.p50_us == 1.0
        assert result.p999_us == 2.0
        result.latencies_us.extend([10.0, 10.0])  # cache must invalidate
        assert result.p50_us == 2.0
        assert result.p999_us == 10.0
        summary = result.summary()
        assert summary["p999_us"] == 10.0
