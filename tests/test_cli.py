"""Tests for the figure-regeneration CLI and the ablation figures."""

import os
import pathlib
import re
import shlex

import pytest

from repro.bench import Scale
from repro.bench.figures import FIGURES, Figure
from repro.cli import build_parser, main
from repro.config import unknown_env_vars
from repro.registry import families, family_names

TINY = Scale(name="tiny", num_keys=3000, ops_per_client=50,
             client_sweep=[4], clients=6, nic_scale=32.0)


def readme_commands():
    """Every ``python -m repro ...`` line inside README's bash blocks, as
    an argv (continuation lines joined, comments and ``VAR=`` prefixes
    dropped)."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if "repro" in words and words[words.index("repro") - 1] == "-m":
                commands.append(words[words.index("repro") + 1:])
    return commands


class TestCli:
    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_example_parses(self, argv):
        # Parsed, not run: a removed flag, subcommand or figure must not
        # survive in the README (``run fig18a --sync-mode pessimistic``
        # did, long after fig18a gained an optimistic-only family).
        args = build_parser().parse_args(argv)
        if args.command == "run" and args.figure is not None:
            assert args.figure == "all" or args.figure in FIGURES

    def test_readme_has_examples(self):
        assert len(readme_commands()) > 30

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table1" in out and "ablation-cxl" in out

    def test_unknown_figure(self, capsys):
        assert main(["run", "fig999"]) == 2

    def test_run_analytic_figure(self, capsys):
        assert main(["run", "fig16"]) == 0
        out = capsys.readouterr().out
        assert "metadata_saving_ratio" in out

    def test_run_writes_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "tables.txt"
        assert main(["run", "fig19b", "--out", str(out_file)]) == 0
        assert "max_load_factor" in out_file.read_text()

    def test_every_registered_name_is_callable(self):
        # A figure is a grid of points or a probe that returns rows.
        for name, figure in FIGURES.items():
            assert figure.name == name
            assert callable(figure.grid) != callable(figure.probe), name

    def test_run_experiment_dispatch(self):
        rows = FIGURES["fig3d"].rows(TINY)
        assert rows and "max_load_factor" in rows[0]

    @pytest.mark.parametrize("argv", [["run", "fig3d"], ["chaos"]])
    def test_partitions_flag_is_rejected_not_ignored(self, argv, capsys):
        # The mirrored-replica executor is gone; its flag must be an
        # argparse error on both subcommands, never a silent serial run.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--partitions", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --partitions" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "fig3d", "--cache-mode", "partitioned"],
        ["run", "fig3d", "--rebalance"],
        ["chaos", "--migrate", "1:0:60us"]],
        ids=["cache-mode", "rebalance", "migrate"])
    def test_static_shard_flags_are_rejected_not_ignored(self, argv, capsys):
        # Shards are static: the partitioned cache, the rebalancer and
        # online migration are gone, and so are their flags.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        flag = next(word for word in argv if word.startswith("--"))
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_more_shards_than_keys_exits_2_in_one_line(self, capsys):
        # It used to die with a ValueError traceback from the bulk load.
        assert main(["chaos", "--num-mns", "2", "--shards", "500"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "ClusterConfig.num_shards" in err and "bulk-loaded keys" in err

    @pytest.mark.parametrize("argv,complaint", [
        (["--index", "nope"], "unknown index name 'nope'"),
        (["--index", "rolex", "--sync-mode", "pessimistic"],
         "does not support sync mode 'pessimistic'")],
        ids=["unknown-index", "undeclared-mode"])
    def test_chaos_refuses_a_bad_family_in_one_line(self, argv, complaint,
                                                    capsys):
        # Both used to die with a WorkloadError traceback and exit 1.
        assert main(["chaos", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and complaint in err

    @pytest.mark.parametrize("argv,complaint", [
        (["--ops", "0"], "--ops must be >= 1"),
        (["--ops", "-5"], "--ops must be >= 1"),
        (["--keys", "0"], "--keys must be >= 1"),
        (["--max-attempts", "0"], "max_attempts must be >= 1"),
        (["--max-attempts", "-3"], "max_attempts must be >= 1"),
        (["--loss", "-0.5"], "probability must be in [0, 1]"),
        (["--loss", "1.5"], "probability must be in [0, 1]"),
        (["--delay", "-1"], "probability must be in [0, 1]"),
        (["--crash", "cn9/c0:lock"], "'cn9/c0' names no client"),
        (["--crash", "cn0/c0:reed@1"], "unknown verb kind(s) ['reed']"),
        (["--crash", "cn0/c0:read@0"], "1-based"),
        (["--outage", "5:10us:20us"], "outage MN 5"),
        (["--outage", "0:300us:100us"], "empty fault window"),
        (["--ops", "5", "--lease-duration=-5us"], "lease_duration must be > 0"),
        (["--ops", "5", "--lease-duration=0us"], "lease_duration must be > 0"),
        (["--crash", "cn0/c0:read@x"], "bad crash spec 'cn0/c0:read@x' (want "
         "OWNER[:KIND[@NTH][:before|after]])"),
    ], ids=["ops-0", "ops-negative", "keys-0", "attempts-0",
            "attempts-negative", "loss-negative", "loss-above-1",
            "delay-negative", "crash-no-client", "crash-no-verb",
            "crash-nth-0", "outage-no-mn", "outage-empty", "lease-negative",
            "lease-0", "crash-nth-not-a-number"])
    def test_chaos_refuses_what_never_fires_in_one_line(self, argv, complaint,
                                                        capsys):
        """Each ran the default, ran nothing or never fired, and exited 0
        (``read@0`` died with a ValueError traceback); a lease of no
        length ran every client into ``LockLeaseExpiredError``, and a
        crash spec's bad NTH printed only ``int()``'s complaint."""
        assert main(["chaos", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and complaint in err

    def test_list_indexes_has_no_chaos_column(self, capsys):
        # Every family runs the chaos harness; the column said otherwise.
        assert main(["run", "--list-indexes"]) == 0
        assert "chaos" not in capsys.readouterr().out

    def test_list_indexes_names_every_family_and_its_placement(self, capsys):
        assert main(["run", "--list-indexes"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split()[0] for row in rows] == family_names()
        placements = {row.split()[0]: row.split()[5] for row in rows}
        assert placements == {family.name: family.default_placement
                              for family in families()}

    def test_placement_knob_is_gone_not_ignored(self, monkeypatch, capsys):
        # Placement is measured (FlexKV's cache-pressure policy), never
        # configured: the campaign flag is an argparse error, and the
        # variable draws the typo warning from every command.
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "run", "--placement", "mn"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --placement" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_PLACEMENT", "mn")
        for argv in (["list"], ["run", "fig16"], ["run", "--list-indexes"]):
            assert main(argv) == 0
            assert ("warning: unrecognized environment variable "
                    "REPRO_PLACEMENT") in capsys.readouterr().err

    @pytest.mark.parametrize("argv,complaint", [
        (["perf"], "invalid choice: 'perf'"),
        (["campaign", "report", "--baseline", "x"],
         "unrecognized arguments: --baseline"),
        (["campaign", "run", "--scale", "perf"], "invalid choice: 'perf'")],
        ids=["repro-perf", "report-baseline", "scale-perf"])
    def test_second_perf_instrument_is_gone(self, argv, complaint, capsys):
        # perfbench/run.py is the one perf instrument; `repro perf`, the
        # campaign report's baseline verdict and the scale preset
        # that fed it must fail loudly, not run something else.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert complaint in capsys.readouterr().err

    def test_main_leaves_the_environment_as_it_found_it(self, capsys):
        # Flags used to reach the run by being written into os.environ,
        # where they stayed and re-configured every later test.
        before = dict(os.environ)
        assert main(["run", "fig19b", "--depth", "4", "--sync-mode",
                     "pessimistic", "--num-mns", "2", "--shards", "2",
                     "--jobs", "1"]) == 0
        assert dict(os.environ) == before

    def _captured_scale(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(Figure, "rows",
                            lambda figure, scale: seen.append(scale) or [])
        assert main(["run", "fig19b"] + argv) == 0
        return seen[0]

    def test_run_flags_travel_as_scale_fields(self, monkeypatch, capsys):
        for name in ("REPRO_NUM_MNS", "REPRO_SHARDS", "REPRO_DEPTH"):
            monkeypatch.delenv(name, raising=False)
        scale = self._captured_scale(monkeypatch, [
            "--depth", "4", "--sync-mode", "pessimistic", "--num-mns", "2",
            "--shards", "2", "--jobs", "1", "--seed", "9"])
        assert scale.jobs == 1
        config = scale.cluster_config()
        assert (config.pipeline_depth, config.sync_mode, config.num_mns,
                config.num_shards, config.seed) == (4, "pessimistic", 2, 2, 9)
        # --num-mns alone means "scale out": one shard per MN, unless a
        # shard count is given by flag or variable.
        alone = self._captured_scale(monkeypatch, ["--num-mns", "2"])
        assert alone.cluster_config().num_shards == 2
        striped = self._captured_scale(monkeypatch,
                                       ["--num-mns", "2", "--shards", "0"])
        assert striped.cluster_config().num_shards == 0
        # flag > environment > default, with nothing written back
        monkeypatch.setenv("REPRO_DEPTH", "3")
        assert self._captured_scale(monkeypatch, []).depth == 3
        assert self._captured_scale(monkeypatch, ["--depth", "2"]).depth == 2
        assert os.environ["REPRO_DEPTH"] == "3"

    def test_trace_shard_flags_match_the_variables(self, monkeypatch,
                                                   capsys):
        for name in ("REPRO_NUM_MNS", "REPRO_SHARDS"):
            monkeypatch.delenv(name, raising=False)
        argv = ["trace", "--workload", "E", "--clients", "4", "--ops", "20"]
        assert main(argv + ["--num-mns", "4", "--shards", "4"]) == 0
        flags = capsys.readouterr().out
        monkeypatch.setenv("REPRO_NUM_MNS", "4")
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert main(argv) == 0
        assert capsys.readouterr().out == flags
        monkeypatch.delenv("REPRO_NUM_MNS")
        monkeypatch.delenv("REPRO_SHARDS")
        assert main(argv) == 0
        assert capsys.readouterr().out != flags  # the shards took effect

    @pytest.mark.parametrize("flag,value", [("--depth", "0"), ("--jobs", "0"),
                                            ("--num-mns", "0"),
                                            ("--shards", "-1")])
    def test_out_of_range_flags_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig19b", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bad_env_value_exits_2_naming_the_variable(self, monkeypatch,
                                                       capsys):
        monkeypatch.setenv("REPRO_SYNC_MODE", "wat")
        assert main(["run", "fig19b"]) == 2
        assert "REPRO_SYNC_MODE" in capsys.readouterr().err

    def test_removed_env_knobs_get_the_typo_warning(self):
        stale = {"REPRO_PARTITIONS": "2", "REPRO_PARTITION_WINDOW": "64",
                 "REPRO_SIM_QUEUE": "heap", "REPRO_CACHE_MODE": "partitioned",
                 "REPRO_REBALANCE": "1", "REPRO_PLACEMENT": "mn",
                 "REPRO_CAMPAIGN_DB": "c.sqlite", "REPRO_CAMPAIGN_ID": "nightly"}
        assert unknown_env_vars(stale) == sorted(stale)


class TestAblations:
    def test_cxl_costs_inserts_only(self):
        rows = FIGURES["ablation-cxl"].rows(TINY, workloads=("C", "LOAD"))
        by_key = {(r["workload"], r["mode"]): r for r in rows}
        assert by_key[("LOAD", "cxl-atomics")]["rtts_per_op"] > \
            by_key[("LOAD", "rdma-masked-cas")]["rtts_per_op"]
        assert by_key[("C", "cxl-atomics")]["throughput_mops"] == \
            pytest.approx(by_key[("C", "rdma-masked-cas")]
                          ["throughput_mops"], rel=0.05)

    def test_rdwc_helps_under_skew(self):
        rows = FIGURES["ablation-rdwc"].rows(TINY, thetas=(0.99,))
        by_flag = {r["rdwc"]: r["throughput_mops"] for r in rows}
        assert by_flag[True] >= by_flag[False]

    def test_write_amplification_near_paper_claim(self):
        rows = FIGURES["ablation-write-amp"].rows(TINY, value_sizes=(8, 253))
        for row in rows:
            # §4.5: 1 version byte per 63 payload bytes + 1 per entry.
            assert 1.0 <= row["amplification_vs_entry"] <= 1.05
