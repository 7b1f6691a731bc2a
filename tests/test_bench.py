"""Tests for the bench harness: runner, metrics, scale presets, and the
qualitative shapes the paper's figures depend on (at tiny scale)."""

import pytest

from repro.bench import QUICK, Scale, build_index, group_rows, run_point
from repro.bench.metrics import RunResult, percentile
from repro.bench.report import format_table, ratio
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.rdma.ops import TrafficStats

TINY = Scale(name="tiny", num_keys=4000, ops_per_client=60,
             client_sweep=[4, 12], clients=8, nic_scale=32.0)


class TestMetrics:
    def test_percentile(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile([], 0.5) == 0.0

    def test_run_result_derived_metrics(self):
        result = RunResult(index_name="x", workload="C", num_clients=2,
                           ops_completed=1000, elapsed_seconds=0.001,
                           latencies_us=[1.0, 2.0, 3.0],
                           traffic=TrafficStats(rtts=2000,
                                                bytes_read=100_000))
        assert result.throughput_mops == pytest.approx(1.0)
        assert result.rtts_per_op == pytest.approx(2.0)
        assert result.read_bytes_per_op == pytest.approx(100.0)
        assert result.avg_us == pytest.approx(2.0)

    def test_summary_keys(self):
        result = RunResult("x", "C", 1, 10, 1.0)
        summary = result.summary()
        for key in ("index", "workload", "throughput_mops", "p50_us",
                    "p99_us", "rtts_per_op"):
            assert key in summary


class TestReport:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.1}]
        text = format_table(rows, title="T")
        assert "T" in text and "2.500" in text and "10" in text

    def test_group_and_ratio(self):
        rows = [{"index": "x", "m": 2.0}, {"index": "y", "m": 1.0}]
        assert set(group_rows(rows, "index")) == {"x", "y"}
        assert ratio(rows, "m", "x", "y") == pytest.approx(2.0)


class TestScalePresets:
    def test_budget_scaling(self):
        assert QUICK.cache_bytes >= 16 * 1024
        assert QUICK.hotspot_bytes >= 4 * 1024

    def test_cluster_config(self):
        config = QUICK.cluster_config(clients=10, num_cns=2)
        assert config.total_clients == 10
        assert config.mn_nic.bandwidth < 12.5e9

    def test_env_selection(self, monkeypatch):
        from repro.bench.scale import current_scale
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert current_scale().name == "quick"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ConfigError, match="REPRO_SCALE"):
            current_scale()


class TestBuildIndex:
    @pytest.mark.parametrize("name", ["chime", "chime-indirect", "sherman",
                                      "marlin", "smart", "smart-opt",
                                      "smart-rcu", "rolex",
                                      "rolex-indirect"])
    def test_all_names_buildable(self, name):
        cluster = Cluster(ClusterConfig(region_bytes=1 << 24))
        index = build_index(name, cluster)
        assert index is not None

    def test_unknown_name(self):
        cluster = Cluster(ClusterConfig(region_bytes=1 << 24))
        with pytest.raises(Exception):
            build_index("btree9000", cluster)


class TestRunPoint:
    @pytest.mark.parametrize("workload", ["A", "B", "C", "D", "E", "F",
                                          "LOAD"])
    def test_chime_all_workloads(self, workload):
        config = TINY.cluster_config(clients=4)
        result = run_point("chime", workload, TINY.num_keys, 40, config,
                           chime_overrides=TINY.chime_overrides())
        assert result.ops_completed == 4 * 40
        assert result.throughput_mops > 0
        assert result.p99_us >= result.p50_us > 0

    @pytest.mark.parametrize("index_name", ["sherman", "smart", "rolex"])
    def test_baselines_mixed_workload(self, index_name):
        config = TINY.cluster_config(clients=4)
        result = run_point(index_name, "A", TINY.num_keys, 40, config)
        assert result.ops_completed == 4 * 40

    def test_rolex_pretrained_for_inserts(self):
        config = TINY.cluster_config(clients=4)
        result = run_point("rolex", "D", TINY.num_keys, 60, config)
        assert result.ops_completed == 4 * 60

    def test_deterministic_runs(self):
        def once():
            config = TINY.cluster_config(clients=4)
            result = run_point("chime", "A", TINY.num_keys, 50, config)
            return (result.ops_completed, result.elapsed_seconds,
                    result.traffic.rtts)

        assert once() == once()

    def test_smart_opt_gets_unlimited_cache(self):
        config = TINY.cluster_config(clients=4, cache_bytes=1024)
        result = run_point("smart-opt", "C", TINY.num_keys, 40, config)
        # With 1 KB it would thrash; unlimited-cache override must apply.
        assert result.rtts_per_op < 3


class TestPaperShapes:
    """Tiny-scale sanity checks of the headline qualitative claims."""

    def test_chime_beats_sherman_on_reads(self):
        config = TINY.cluster_config(clients=12)
        chime = run_point("chime", "C", TINY.num_keys, 60, config,
                          chime_overrides=TINY.chime_overrides())
        config2 = TINY.cluster_config(clients=12)
        sherman = run_point("sherman", "C", TINY.num_keys, 60, config2)
        assert chime.throughput_mops > 1.5 * sherman.throughput_mops
        assert chime.read_bytes_per_op < sherman.read_bytes_per_op / 3

    def test_chime_beats_cache_limited_smart(self):
        config = TINY.cluster_config(clients=12)
        chime = run_point("chime", "C", TINY.num_keys, 60, config,
                          chime_overrides=TINY.chime_overrides())
        config2 = TINY.cluster_config(clients=12,
                                      cache_bytes=TINY.cache_bytes // 4)
        smart = run_point("smart", "C", TINY.num_keys, 60, config2,
                          unlimited_cache_for=())
        assert chime.throughput_mops > smart.throughput_mops

    def test_rolex_reads_about_two_leaves(self):
        config = TINY.cluster_config(clients=4).scaled(rdwc=False)
        rolex = run_point("rolex", "C", TINY.num_keys, 60, config)
        # span 16 leaves of ~17 B entries: 2 tables ~ 900-1100 B/op.
        assert 600 < rolex.read_bytes_per_op < 1600
