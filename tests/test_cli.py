"""Tests for the figure-regeneration CLI and the ablation experiments."""

import os
import pathlib
import re
import shlex

import pytest

from repro.bench import Scale
from repro.bench.experiments import (
    ablation_cxl_atomics,
    ablation_rdwc,
    ablation_write_amplification,
)
from repro.cli import EXPERIMENTS, build_parser, main, run_experiment
from repro.config import unknown_env_vars

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
            assert args.figure == "all" or args.figure in EXPERIMENTS

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
        for name, (func, _wants_scale) in EXPERIMENTS.items():
            assert callable(func), name

    def test_run_experiment_dispatch(self):
        rows = run_experiment("fig3d", TINY)
        assert rows and "max_load_factor" in rows[0]

    @pytest.mark.parametrize("argv", [["run", "fig3d"], ["chaos"]])
    def test_partitions_flag_is_rejected_not_ignored(self, argv, capsys):
        # The mirrored-replica executor is gone; its flag must be an
        # argparse error on both subcommands, never a silent serial run.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--partitions", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --partitions" in capsys.readouterr().err

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
                     "--cache-mode", "partitioned", "--rebalance",
                     "--jobs", "1"]) == 0
        assert dict(os.environ) == before

    def _captured_scale(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr("repro.cli.run_experiment",
                            lambda name, scale: seen.append(scale) or [])
        assert main(["run", "fig19b"] + argv) == 0
        return seen[0]

    def test_run_flags_travel_as_scale_fields(self, monkeypatch, capsys):
        for name in ("REPRO_NUM_MNS", "REPRO_SHARDS", "REPRO_DEPTH"):
            monkeypatch.delenv(name, raising=False)
        scale = self._captured_scale(monkeypatch, [
            "--depth", "4", "--sync-mode", "pessimistic", "--num-mns", "2",
            "--shards", "2", "--cache-mode", "partitioned", "--rebalance",
            "--jobs", "1", "--seed", "9"])
        assert scale.jobs == 1
        config = scale.cluster_config()
        assert (config.pipeline_depth, config.sync_mode, config.num_mns,
                config.num_shards, config.cache_mode,
                config.rebalance_shards, config.seed) == (
                    4, "pessimistic", 2, 2, "partitioned", True, 9)
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
        monkeypatch.setenv("REPRO_CACHE_MODE", "wat")
        assert main(["run", "fig19b"]) == 2
        assert "REPRO_CACHE_MODE" in capsys.readouterr().err

    def test_removed_env_knobs_get_the_typo_warning(self):
        stale = {"REPRO_PARTITIONS": "2", "REPRO_PARTITION_WINDOW": "64",
                 "REPRO_SIM_QUEUE": "heap"}
        assert unknown_env_vars(stale) == sorted(stale)


class TestAblations:
    def test_cxl_costs_inserts_only(self):
        rows = ablation_cxl_atomics(TINY, workloads=("C", "LOAD"))
        by_key = {(r["workload"], r["mode"]): r for r in rows}
        assert by_key[("LOAD", "cxl-atomics")]["rtts_per_op"] > \
            by_key[("LOAD", "rdma-masked-cas")]["rtts_per_op"]
        assert by_key[("C", "cxl-atomics")]["throughput_mops"] == \
            pytest.approx(by_key[("C", "rdma-masked-cas")]
                          ["throughput_mops"], rel=0.05)

    def test_rdwc_helps_under_skew(self):
        rows = ablation_rdwc(TINY, thetas=(0.99,))
        by_flag = {r["rdwc"]: r["throughput_mops"] for r in rows}
        assert by_flag[True] >= by_flag[False]

    def test_write_amplification_near_paper_claim(self):
        rows = ablation_write_amplification(TINY, value_sizes=(8, 253))
        for row in rows:
            # §4.5: 1 version byte per 63 payload bytes + 1 per entry.
            assert 1.0 <= row["amplification_vs_entry"] <= 1.05
