"""Tests for the experiment campaign service (repro.xpmt).

Covers the spec-hash contract (no aliasing across configurations, one
hash for a point's seeds), the figure records as campaigns (distinct
labels and hashes, probes refused), the sqlite store's first-write-wins
semantics, the resumable runner (interrupt mid-sweep, resume runs only
the missing points, and the resumed report is byte-identical to an
uninterrupted run's), the replicate statistics, the regression verdict
over fabricated commit trajectories, the claims table, and the text
report and its CLI exits.
"""

import dataclasses

import pytest

from repro.bench.figures import FIGURES, Claim, Figure, Table
from repro.bench.runner import PointSpec
from repro.bench.scale import QUICK, Scale, current_scale
from repro.cli import build_parser, main
from repro.config import ClusterConfig
from repro.xpmt import stats
from repro.xpmt.report import (
    build_report,
    claim_rows,
    collect_cells,
    diff_cells,
    regression_verdict,
)
from repro.xpmt.runner import campaign_status, run_campaign
from repro.xpmt.spec import (
    CampaignPlan,
    current_commit,
    point_label,
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

#: A one-point grid record: CHIME on YCSB C with two clients.
TINY_FIGURE = Figure(
    "tiny",
    "one point",
    grid=lambda scale: [scale.point("chime", "C", scale.cluster_config(clients=2))],
)


@pytest.fixture
def ticking_clock(monkeypatch):
    """Store timestamps 1, 2, 3, ...: commits order by first insertion."""
    from repro.xpmt import store as store_module

    clock = iter(range(1, 1000))
    monkeypatch.setattr(store_module.time, "time", lambda: float(next(clock)))


def tiny_plan(name="t", seeds=(7, 8), figure=TINY_FIGURE, scale=TINY):
    return CampaignPlan(figure, figure.tables, scale, tuple(seeds), name)


def tiny_point(**fields):
    return TINY.point("chime", "C", TINY.cluster_config(clients=4), **fields)


def digest(point):
    return spec_hash(spec_payload(point))


def label(point):
    """The label a point's sweep row will get, before it runs."""
    row = {
        "index": point.index_name,
        "workload": point.workload_name,
        "clients": point.cluster_config.total_clients,
    }
    return point_label(row, point.extra)


class TestSpecHash:
    def test_deterministic(self):
        assert digest(tiny_point()) == digest(tiny_point())
        assert len(digest(tiny_point())) == 16

    def test_default_cell_hash_is_pinned(self, monkeypatch):
        # Golden value: a payload-rule change that would re-key every
        # stored campaign point must show up here, not in a user's store.
        monkeypatch.setattr("repro.xpmt.spec.repro_environ", dict)
        config = ClusterConfig(num_cns=2, clients_per_cn=2, seed=7)
        payload = spec_payload(PointSpec("chime", "C", 600, 20, config))
        assert sorted(payload) == ["env", "point", "v"]
        assert payload["v"] == 2
        assert "seed" not in payload["point"]["cluster_config"]
        assert spec_hash(payload) == "1d77711ae35c2082"

    def test_cell_fields_change_the_hash(self):
        base = tiny_point()
        config = base.cluster_config
        digests = {digest(base)}
        for variant in (
            dataclasses.replace(base, cluster_config=config.scaled(clients_per_cn=4)),
            dataclasses.replace(base, cluster_config=config.scaled(pipeline_depth=4)),
            dataclasses.replace(base, cluster_config=config.scaled(sync_mode="pessimistic")),
            dataclasses.replace(base, cluster_config=config.scaled(num_mns=2)),
            dataclasses.replace(base, workload_name="A"),
            dataclasses.replace(base, value_size=64),
            dataclasses.replace(base, theta=0.5),
            dataclasses.replace(base, span=16),
            dataclasses.replace(base, neighborhood=4),
            dataclasses.replace(base, extra=(("step", "x"),)),
        ):
            digests.add(digest(variant))
        assert len(digests) == 11
        # ... but not the seed: a point's replicates share one hash.
        reseeded = dataclasses.replace(base, cluster_config=config.scaled(seed=99))
        assert digest(reseeded) == digest(base)

    def test_scale_numbers_change_the_hash(self):
        edited = dataclasses.replace(TINY, num_keys=TINY.num_keys * 2)
        (first,) = tiny_plan().points(7)
        (second,) = tiny_plan(scale=edited).points(7)
        assert first[1] != second[1]

    def test_overrides_change_the_hash(self):
        assert digest(tiny_point()) != digest(tiny_point(overrides={"hotspot_bytes": 1}))

    def test_unresolved_env_knob_changes_the_hash(self, monkeypatch):
        before = digest(tiny_point())
        monkeypatch.setenv("REPRO_FAULTS", "cn0/c0:lock")
        assert "REPRO_FAULTS" in relevant_env()
        assert digest(tiny_point()) != before

    def test_resolved_env_is_excluded(self, monkeypatch):
        before = digest(tiny_point())
        monkeypatch.setenv("REPRO_SEED", "99")
        monkeypatch.setenv("REPRO_SCALE", "full")
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert digest(tiny_point()) == before

    def test_campaign_id_is_deterministic(self):
        assert tiny_plan(name="").campaign_id == tiny_plan(name="").campaign_id
        assert tiny_plan(name="").campaign_id.startswith("tiny-")
        assert tiny_plan(name="x").campaign_id == "x"
        other_seeds = tiny_plan(name="", seeds=(7, 9))
        assert other_seeds.campaign_id != tiny_plan(name="").campaign_id

    def test_commit_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "feedface")
        assert current_commit() == "feedface"


class TestFigureCampaigns:
    def test_every_grid_campaign_has_distinct_labels_and_seed_free_hashes(self):
        # Nothing runs: within each grid record and each table slice, no
        # two points share a hash or print alike in the report, and a
        # point's hash is the same at every seed.
        targets = [
            name
            for figure in FIGURES.values()
            if figure.grid is not None
            for name in (figure.name, *(table.name for table in figure.tables))
        ]
        assert "fig12_ycsb_read" in targets and "fig3d" not in targets
        for target in targets:
            plan = CampaignPlan.of(target, QUICK, (1, 2))
            first, second = plan.points(1), plan.points(2)
            assert [d for _, d, _ in first] == [d for _, d, _ in second], target
            assert [p.cluster_config.seed for p, _, _ in second] == [2] * len(second)
            labels = {label(point) for point, _, _ in first}
            assert len(labels) == len(first), target
            for table, hashes in plan.table_hashes().items():
                assert len(set(hashes)) == len(hashes), table

    def test_a_table_runs_its_slice_and_a_figure_the_union(self):
        read = CampaignPlan.of("fig12_ycsb_read", QUICK, (1,))
        scan = CampaignPlan.of("fig12_ycsb_scan", QUICK, (1,))
        whole = CampaignPlan.of("fig12", QUICK, (1,))
        assert {p.workload_name for p, _, _ in read.points(1)} == {"B", "C"}
        assert len(whole.points(1)) == len(FIGURES["fig12"].grid(QUICK))
        assert len(read.points(1)) + len(scan.points(1)) < len(whole.points(1))

    def test_cli_refuses_a_probe_record_and_an_unknown_name(self, tmp_path, capsys):
        db = str(tmp_path / "c.sqlite")
        for name, reason in (
            ("fig3d", "fig3d is a probe record"),
            ("fig3d_hashing", "fig3d is a probe record"),
            ("nosuch", "unknown figure or table 'nosuch'"),
        ):
            assert main(["campaign", "run", name, "--db", db, "--seeds", "1"]) == 2
            err = capsys.readouterr().err
            assert reason in err and "grid records: fig3b, fig3c, fig12," in err, err

    def test_seed_lists_and_ranges(self, capsys):
        parser = build_parser()

        def seeds(text):
            return parser.parse_args(["campaign", "run", "fig12", "--seeds", text]).seeds

        assert seeds("7") == [7]
        assert seeds("1,3,7") == [1, 3, 7]
        assert seeds("42-46") == [42, 43, 44, 45, 46]
        assert seeds("1-2,2,5") == [1, 2, 5]
        for bad in ("x", "5-3", "1,,2"):
            with pytest.raises(SystemExit):
                seeds(bad)
        assert "bad seed list" in capsys.readouterr().err


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
            # What is stored is the row `repro run` prints for the point.
            stored = {p.seed: p.metrics for p in store.points()}
            for seed in (7, 8):
                assert [stored[seed]] == TINY_FIGURE.rows(dataclasses.replace(TINY, seed=seed))

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
        plan = tiny_plan(seeds=(31, 32), scale=dataclasses.replace(TINY, depth=4))
        (first, _, first_hash, _), (second, _, second_hash, _) = plan.targets()
        assert (first.cluster_config.seed, second.cluster_config.seed) == (31, 32)
        assert first.cluster_config.pipeline_depth == 4
        assert first_hash == second_hash
        # ... and nowhere else: PointSpec no longer duplicates the field.
        assert not hasattr(first, "depth") and not hasattr(first, "placement")


def fabricate_trajectory(store, metrics_by_commit, point=None):
    """Lay replicate points for one point across fabricated commits."""
    point = point or TINY.point("chime", "C", TINY.cluster_config(clients=2))
    payload = spec_payload(point)
    row = {
        "index": point.index_name,
        "workload": point.workload_name,
        "clients": point.cluster_config.total_clients,
        "p50_us": 10.0,
        "p99_us": 20.0,
        **dict(point.extra),
    }
    for commit, values in metrics_by_commit:
        for seed, value in enumerate(values):
            store.put_point(
                commit,
                seed,
                spec_hash(payload),
                payload,
                {**row, "throughput_mops": value},
                campaign_id="fab",
            )
    store.upsert_campaign("fab", "fab", metrics_by_commit[-1][0], {})
    return spec_hash(payload)


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
        # A record tells its points apart by their `extra` fields, so the
        # label prints them after `index/workload cN`, or `campaign
        # report` / `campaign diff` would print distinct points alike.
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            for knobs in ({}, {"sync_mode": "pessimistic"}, {"num_mns": 2}):
                config = TINY.cluster_config(clients=2, **knobs)
                point = TINY.point("chime", "C", config, extra=tuple(knobs.items()))
                fabricate_trajectory(store, [("aaa", [1.0, 1.1]), ("bbb", [1.2, 1.3])], point=point)
            cells = collect_cells(store, "fab")
            rows = diff_cells(cells, "aaa", "bbb")
        assert sorted(c.label for c in cells) == [
            "chime/C c2",
            "chime/C c2 num_mns=2",
            "chime/C c2 sync_mode=pessimistic",
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


class TestClaims:
    def test_claims_are_judged_per_seed_and_stay_advisory(self, tmp_path, monkeypatch, capsys):
        # One claim that holds and one that fails, on each seed's row.
        figure = dataclasses.replace(
            TINY_FIGURE,
            name="tiny-claims",
            tables=(
                Table(
                    "tiny_table",
                    "one point",
                    claims=(
                        Claim("every op ran", lambda r: r[0]["ops"] > 0),
                        Claim("throughput is negative", lambda r: r[0]["throughput_mops"] < 0),
                    ),
                ),
            ),
        )
        monkeypatch.setitem(FIGURES, figure.name, figure)
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = str(tmp_path / "c.sqlite")
        with CampaignStore(db) as store:
            run_campaign(store, tiny_plan(seeds=(7, 8), figure=figure), jobs=1)
            rows = claim_rows(store, "t")
        assert rows == [
            {
                "table": "tiny_table",
                "claim": "tiny-claims.every op ran",
                "holds": "2/2",
                "seed 7": "holds",
                "seed 8": "holds",
            },
            {
                "table": "tiny_table",
                "claim": "tiny-claims.throughput is negative",
                "holds": "0/2",
                "seed 7": "FAILS",
                "seed 8": "FAILS",
            },
        ]
        # The exit code stays with the regression verdict.
        assert main(["campaign", "report", "--db", db]) == 0
        assert "claims at the head commit (advisory)" in capsys.readouterr().out

    def test_a_seed_missing_a_row_is_not_judged(self, tmp_path, monkeypatch):
        figure = dataclasses.replace(
            TINY_FIGURE,
            tables=(Table("tiny_table", "one point", claims=(Claim("ran", lambda r: True),)),),
        )
        monkeypatch.setitem(FIGURES, figure.name, figure)
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            plan = tiny_plan(seeds=(7, 8), figure=figure)
            run_campaign(store, plan, jobs=1, limit=1)
            (row,) = claim_rows(store, plan.campaign_id)
        assert (row["holds"], row["seed 7"]) == ("1/1", "holds")
        assert "seed 8" not in row


class TestSeedThreading:
    def test_repro_seed_overrides_preset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        monkeypatch.setenv("REPRO_SEED", "777")
        assert current_scale().seed == 777
        monkeypatch.setenv("REPRO_SEED", "not-a-seed")
        with pytest.raises(ValueError):
            current_scale()
