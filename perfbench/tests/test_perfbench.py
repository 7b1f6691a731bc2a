"""Smoke tests of the instrument itself, at ``--smoke`` size.

What they pin: the names and units ``BENCHMARK.json`` declares are what
``run.py`` emits (each exactly once); two runs of one seed agree on
every simulated number, count and fingerprint; the profile buckets
partition the profile; the driver's contract (result line, exit codes,
a bare directory fails) holds; stray ``REPRO_*`` variables change
nothing.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run
from metrics import is_host, load_benchmark
from section import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BENCH = load_benchmark()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_cli(*args, env=None, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def two_suites(inprocess_spawn):
    """The smoke suite twice, same seed, children run in-process."""
    return [run.run_suite(seed=7, smoke=True, repeats=1,
                          spawn=inprocess_spawn()) for _ in range(2)]


def test_benchmark_json_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert BENCH["paths"] == ["perfbench"]
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}


def test_suite_emits_every_declared_metric_once_per_workload(two_suites):
    report = two_suites[0]
    assert list(report["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for entry in report["workloads"].values():
        assert sorted(entry["end_to_end"]) == sorted(m["name"] for m in BENCH["end_to_end"])
        assert sorted(entry["per_layer"]) == sorted(m["name"] for m in BENCH["per_layer"])
        assert entry["failed"] == 0 and entry["problems"] == []


def test_two_runs_agree_on_everything_simulated(two_suites):
    rows = compare.compare(two_suites[0], two_suites[1], BENCH)
    assert [r for r in rows if r["verdict"] == "differs"] == []
    exact = [r for r in rows if r["verdict"] == "same" and not is_host(r["metric"])]
    declared = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    # every simulated metric and count, plus the fingerprint and ops_failed
    assert len(exact) == 4 * (sum(not is_host(name) for name in declared) + 2)


def test_profile_buckets_partition_the_profile(two_suites):
    for name, entry in two_suites[0]["workloads"].items():
        layers = entry["per_layer"]
        assert sum(layers[f"{layer}.self_share"] for layer in LAYERS) == pytest.approx(1.0)
        core_parts = sum(v for k, v in layers.items()
                         if k.startswith("core.") and k.count(".") == 2)
        assert core_parts <= layers["core.self_share"] + 1e-9, name
        assert layers["trace.overhead_ratio"] > 1.0


def test_layer_split_tells_the_workloads_apart(two_suites):
    layers = {name: entry["per_layer"] for name, entry in two_suites[0]["workloads"].items()}
    assert layers["radix-coldcache"]["baselines.self_share"] > 0.1
    assert layers["radix-coldcache"]["layout.self_share"] < 0.02
    for name in ("read-skew", "write-scaleout", "scan-insert"):
        assert layers[name]["baselines.self_share"] == 0
        assert (layers[name]["core.sharded.self_share"] > 0) == (name == "write-scaleout")


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_contract_result_line(trace, group):
    done = run_cli("--workload", "scan-insert", "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for line_name in declared:  # printed by name, exactly once
        assert len(re.findall(rf"^scan-insert\s+{re.escape(line_name)}\s", done.stdout,
                              flags=re.M)) == 1


def test_stray_repro_variables_change_nothing():
    args = ("--workload", "read-skew", "--seed", "5", "--seconds", "0", "--trace", "0",
            "--smoke")
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    stray = dict(clean, REPRO_DEPTH="4", REPRO_SHARDS="2", REPRO_SIM_QUEUE="heap")
    prints = [re.search(r"sim_fingerprint\s+(\w+)", run_cli(*args, env=env).stdout).group(1)
              for env in (clean, stray)]
    assert prints[0] == prints[1]


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    done = run_cli("--workload", "read-skew", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0 and done.stdout == ""


# -- compare.py verdicts -----------------------------------------------------

def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "higher", 0.1) == "same"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1) == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1) == "better"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "higher", 0.1) == "unresolved"
    assert compare.verdict(noisy, [v * 2 for v in noisy], "higher", 0.1) == "better"


def test_compare_exits_1_on_a_behaviour_change(two_suites, capsys):
    changed = json.loads(json.dumps(two_suites[1]))
    changed["workloads"]["read-skew"]["per_layer"]["rdma.rtts_per_op"] += 0.01
    assert compare.print_comparison(two_suites[0], changed, BENCH) == 1
    assert "differs" in capsys.readouterr().out
