"""Tests for the experiment campaign service (repro.xpmt).

Covers the spec-hash contract (no aliasing across configurations), the
sqlite store's first-write-wins semantics, the resumable runner
(interrupt mid-sweep, resume runs only the missing points, and the
resumed report is byte-identical to an uninterrupted run's), the
replicate statistics, the regression verdict over fabricated commit
trajectories, and the text report and its CLI exits.
"""

import dataclasses

import pytest

from repro.bench.scale import Scale, current_scale
from repro.cli import main
from repro.xpmt import stats
from repro.xpmt.report import (
    build_report,
    collect_cells,
    diff_cells,
    regression_verdict,
)
from repro.xpmt.runner import build_point_spec, campaign_status, run_campaign
from repro.xpmt.spec import (
    CampaignPlan,
    CellSpec,
    current_commit,
    relevant_env,
    spec_hash,
    spec_payload,
)
from repro.xpmt.store import CampaignStore

TINY = Scale(
    name="tiny",
    num_keys=600,
    ops_per_client=20,
    client_sweep=[2],
    clients=2,
    nic_scale=64.0,
    seed=7,
)


@pytest.fixture
def ticking_clock(monkeypatch):
    """Store timestamps 1, 2, 3, ...: commits order by first insertion."""
    from repro.xpmt import store as store_module

    clock = iter(range(1, 1000))
    monkeypatch.setattr(store_module.time, "time", lambda: float(next(clock)))


def tiny_plan(name="t", seeds=(7, 8), index="chime"):
    cell = CellSpec(index=index, workload="C", clients=2)
    return CampaignPlan(scale=TINY, cells=(cell,), seeds=tuple(seeds), name=name)


class TestSpecHash:
    def test_deterministic(self):
        cell = CellSpec(index="chime", workload="C", clients=4)
        first = spec_hash(spec_payload(cell, TINY))
        second = spec_hash(spec_payload(cell, TINY))
        assert first == second
        assert len(first) == 16

    def test_default_cell_hash_is_pinned(self, monkeypatch):
        # Golden value: a payload-rule change that would re-key every
        # stored campaign point must show up here, not in a user's store.
        monkeypatch.setattr("repro.xpmt.spec.repro_environ", dict)
        cell = CellSpec(index="chime", workload="C", clients=4)
        payload = spec_payload(cell, TINY)
        assert sorted(payload["cell"]) == [
            "clients", "depth", "index", "neighborhood", "span", "theta",
            "value_size", "workload"]
        assert spec_hash(payload) == "2e3135c13f232ab0"

    def test_cell_fields_change_the_hash(self):
        base = CellSpec(index="chime", workload="C", clients=4)
        digests = {spec_hash(spec_payload(base, TINY))}
        for variant in (
            dataclasses.replace(base, clients=8),
            dataclasses.replace(base, depth=4),
            dataclasses.replace(base, workload="A"),
            dataclasses.replace(base, value_size=64),
            dataclasses.replace(base, theta=0.5),
            dataclasses.replace(base, span=16),
            dataclasses.replace(base, neighborhood=4),
        ):
            digests.add(spec_hash(spec_payload(variant, TINY)))
        assert len(digests) == 8

    def test_scale_numbers_change_the_hash(self):
        cell = CellSpec(index="chime", workload="C", clients=4)
        edited = dataclasses.replace(TINY, num_keys=TINY.num_keys * 2)
        assert spec_hash(spec_payload(cell, TINY)) != spec_hash(
            spec_payload(cell, edited)
        )

    def test_overrides_change_the_hash(self):
        cell = CellSpec(index="chime", workload="C", clients=4)
        plain = spec_hash(spec_payload(cell, TINY))
        tuned = spec_hash(spec_payload(cell, TINY, {"hotspot_bytes": 1}))
        assert plain != tuned

    def test_unresolved_env_knob_changes_the_hash(self, monkeypatch):
        cell = CellSpec(index="chime", workload="C", clients=4)
        before = spec_hash(spec_payload(cell, TINY))
        monkeypatch.setenv("REPRO_FAULTS", "cn0/c0:lock")
        assert "REPRO_FAULTS" in relevant_env()
        assert spec_hash(spec_payload(cell, TINY)) != before

    def test_resolved_env_is_excluded(self, monkeypatch):
        cell = CellSpec(index="chime", workload="C", clients=4)
        before = spec_hash(spec_payload(cell, TINY))
        monkeypatch.setenv("REPRO_SEED", "99")
        monkeypatch.setenv("REPRO_SCALE", "full")
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert spec_hash(spec_payload(cell, TINY)) == before

    def test_campaign_id_is_deterministic(self):
        assert tiny_plan(name="").campaign_id == tiny_plan(name="").campaign_id
        assert tiny_plan(name="").campaign_id.startswith("auto-")
        assert tiny_plan(name="x").campaign_id == "x"
        other_seeds = tiny_plan(name="", seeds=(7, 9))
        assert other_seeds.campaign_id != tiny_plan(name="").campaign_id

    def test_commit_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "feedface")
        assert current_commit() == "feedface"


class TestStore:
    def test_roundtrip(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            assert not store.has_point("c1", 7, "abcd")
            assert store.put_point(
                "c1", 7, "abcd", {"cell": {}}, {"throughput_mops": 1.5}, "camp"
            )
            assert store.has_point("c1", 7, "abcd")
            assert store.point_count() == 1
            (row,) = store.points(spec_hash="abcd")
            assert row.commit == "c1"
            assert row.seed == 7
            assert row.campaign_id == "camp"
            assert row.metrics["throughput_mops"] == 1.5

    def test_first_write_wins(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            assert store.put_point("c1", 7, "abcd", {}, {"throughput_mops": 1.5})
            assert not store.put_point("c1", 7, "abcd", {}, {"throughput_mops": 9.9})
            (row,) = store.points()
            assert row.metrics["throughput_mops"] == 1.5

    def test_commit_order_follows_first_insertion(self, tmp_path, ticking_clock):
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            store.put_point("bbb", 1, "h1", {}, {})
            store.put_point("aaa", 1, "h1", {}, {})
            store.put_point("bbb", 2, "h1", {}, {})
            assert store.commit_order() == ["bbb", "aaa"]
            assert store.commit_order(["h1"]) == ["bbb", "aaa"]


class TestStats:
    def test_summarize(self):
        assert stats.summarize([]) == {"n": 0, "mean": 0.0, "stdev": 0.0, "ci95": 0.0}
        assert stats.summarize([4.0])["ci95"] == 0.0
        summary = stats.summarize([1.0, 2.0, 3.0])
        assert summary["n"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["stdev"] == pytest.approx(1.0)
        # t(df=2, two-sided 95%) = 4.303
        assert summary["ci95"] == pytest.approx(4.303 / 3**0.5, rel=1e-6)

    def test_mann_whitney_disjoint_sets_are_significant(self):
        u, p = stats.mann_whitney_u(
            [10.0, 10.1, 10.2, 9.9, 10.05],
            [5.0, 5.1, 4.9, 5.05, 4.95],
        )
        assert u == 0.0
        assert p < 0.05

    def test_mann_whitney_degenerate_inputs(self):
        assert stats.mann_whitney_u([], [1.0]) == (0.0, 1.0)
        _, p = stats.mann_whitney_u([2.0, 2.0], [2.0, 2.0])
        assert p == 1.0

    def test_compare_requires_significance(self):
        clear = stats.compare(
            [10.0, 10.1, 10.2, 9.9, 10.05],
            [5.0, 5.1, 4.9, 5.05, 4.95],
        )
        assert clear["regressed"] and not clear["suspect"]
        noisy = stats.compare([10.0], [5.0])
        assert not noisy["regressed"] and noisy["suspect"]
        flat = stats.compare([10.0, 10.1], [10.05, 9.95])
        assert not flat["regressed"] and not flat["suspect"]


class TestRunnerResume:
    def test_interrupt_and_resume(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        plan = tiny_plan(seeds=(7, 8))
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            first = run_campaign(store, plan, jobs=1, limit=1)
            assert (first.executed, first.skipped, first.remaining) == (1, 0, 1)
            assert not first.complete
            second = run_campaign(store, plan, jobs=1)
            assert (second.executed, second.skipped, second.remaining) == (1, 1, 0)
            assert second.complete
            third = run_campaign(store, plan, jobs=1)
            assert (third.executed, third.skipped) == (0, 2)
            assert store.point_count(campaign_id=plan.campaign_id) == 2
            (status,) = campaign_status(store)
            assert status["stored"] == status["expected"] == 2
            assert "2 total" in third.describe()

    def test_resumed_report_equals_uninterrupted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        plan = tiny_plan(seeds=(7, 8))
        with CampaignStore(str(tmp_path / "resumed.sqlite")) as store:
            run_campaign(store, plan, jobs=1, limit=1)
            run_campaign(store, plan, jobs=1)
            resumed_text, resumed_verdict = build_report(store, plan.campaign_id)
        with CampaignStore(str(tmp_path / "fresh.sqlite")) as store:
            summary = run_campaign(store, plan, jobs=1)
            assert summary.executed == 2
            fresh_text, fresh_verdict = build_report(store, plan.campaign_id)
        assert resumed_text == fresh_text
        assert resumed_verdict["ok"] and fresh_verdict["ok"]

    def test_point_spec_pins_seed_and_depth(self):
        cell = CellSpec(index="chime", workload="C", clients=2, depth=4)
        plan = CampaignPlan(scale=TINY, cells=(cell,), seeds=(31,), name="d")
        spec = build_point_spec(plan, cell, 31)
        assert spec.cluster_config.seed == 31
        assert spec.cluster_config.pipeline_depth == 4
        # ... and nowhere else: PointSpec no longer duplicates the field.
        assert not hasattr(spec, "depth") and not hasattr(spec, "placement")


def fabricate_trajectory(store, metrics_by_commit, cell=None, scale=TINY):
    """Lay replicate points for one cell across fabricated commits."""
    cell = cell or CellSpec(index="chime", workload="C", clients=2)
    payload = spec_payload(cell, scale)
    digest = spec_hash(payload)
    for commit, values in metrics_by_commit:
        for seed, value in enumerate(values):
            store.put_point(
                commit,
                seed,
                digest,
                payload,
                {"throughput_mops": value, "p50_us": 10.0, "p99_us": 20.0},
                campaign_id="fab",
            )
    store.upsert_campaign("fab", "fab", metrics_by_commit[-1][0], {})
    return digest


class TestVerdict:
    def test_regression_is_flagged(self, tmp_path, ticking_clock):
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            fabricate_trajectory(
                store,
                [
                    ("aaa", [10.0, 10.1, 10.2, 9.9, 10.05]),
                    ("bbb", [5.0, 5.1, 4.9, 5.05, 4.95]),
                ],
            )
            cells = collect_cells(store, "fab")
            assert len(cells) == 1
            assert cells[0].commit_order == ["aaa", "bbb"]
            verdict = regression_verdict(cells)
            assert not verdict["ok"]
            assert "chime/C c2" in verdict["problems"][0]
            (diff,) = diff_cells(cells, "aaa", "bbb")
            assert diff["verdict"] == "REGRESSED"
            assert diff["delta_pct"] == pytest.approx(-50.2, abs=0.5)

    def test_improvement_passes(self, tmp_path, ticking_clock):
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            fabricate_trajectory(
                store,
                [("aaa", [5.0, 5.1, 4.9]), ("bbb", [10.0, 10.1, 10.2])],
            )
            verdict = regression_verdict(collect_cells(store, "fab"))
            assert verdict["ok"]
            assert not verdict["warnings"]

    def test_cells_differing_only_in_a_later_field_are_told_apart(self, tmp_path):
        # Fields added after the v1 payload re-key a cell only off their
        # default, so the report's labeller must print them, or
        # `campaign report` / `campaign diff` print distinct cells alike.
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            for knobs in ({}, {"sync_mode": "pessimistic"}, {"num_mns": 2}):
                cell = CellSpec(index="chime", workload="C", clients=2, **knobs)
                fabricate_trajectory(store, [("aaa", [1.0, 1.1]), ("bbb", [1.2, 1.3])], cell=cell)
            cells = collect_cells(store, "fab")
            rows = diff_cells(cells, "aaa", "bbb")
        assert sorted(c.label for c in cells) == [
            "chime/C c2 [tiny]",
            "chime/C c2 m2 [tiny]",
            "chime/C c2 pessimistic [tiny]",
        ]
        assert [r["cell"] for r in rows] == [c.label for c in cells]

    def test_report_html_is_self_contained(self, tmp_path, ticking_clock):
        # The text report carries the verdict, each cell, each stored
        # commit with its mean at four decimals, and the trend.
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            fabricate_trajectory(store, [("aaa", [1.0, 1.1]), ("bbb", [1.2, 1.3])])
            text, verdict = build_report(store, "fab")
        assert verdict["ok"]
        assert text.startswith("campaign fab: PASS")
        assert "chime/C c2" in text
        for commit, mean in (("aaa", "1.0500"), ("bbb", "1.2500")):
            (row,) = [line for line in text.splitlines() if f"  {commit}  " in line]
            assert mean in row
        assert "1.0500 1.2500" in text  # the trend: per-commit means

    def test_cli_exits_2_on_an_unknown_id_or_commit(self, tmp_path, ticking_clock, capsys):
        # A gate that passes on a typo does nothing: an id or a commit
        # the store never saw is an error naming what it does hold.
        db = str(tmp_path / "c.sqlite")
        with CampaignStore(db) as store:
            fabricate_trajectory(
                store,
                [("aaa", [10.0, 10.1, 10.2, 9.9, 10.05]), ("bbb", [5.0, 5.1, 4.9, 5.05, 4.95])],
            )
        assert main(["campaign", "diff", "--db", db]) == 1
        assert main(["campaign", "report", "--db", db]) == 1
        capsys.readouterr()
        for argv in (["report", "--id", "nosuch"], ["diff", "--id", "nosuch"]):
            assert main(["campaign", *argv, "--db", db]) == 2
            err = capsys.readouterr().err
            assert "nosuch" in err and "stored: fab" in err
        for argv in (["--base", "aab", "--head", "bbb"], ["--base", "aaa", "--head", "bbx"]):
            assert main(["campaign", "diff", "--db", db, *argv]) == 2
            assert "stored: aaa, bbb" in capsys.readouterr().err

    def test_report_out_writes_the_printed_text(self, tmp_path, capsys):
        db = str(tmp_path / "c.sqlite")
        with CampaignStore(db) as store:
            fabricate_trajectory(store, [("aaa", [1.0, 1.1])])
        out = tmp_path / "report.txt"
        assert main(["campaign", "report", "--db", db, "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out


class TestSeedThreading:
    def test_repro_seed_overrides_preset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        monkeypatch.setenv("REPRO_SEED", "777")
        assert current_scale().seed == 777
        monkeypatch.setenv("REPRO_SEED", "not-a-seed")
        with pytest.raises(ValueError):
            current_scale()
