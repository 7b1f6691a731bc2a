"""Parallel sweep execution: determinism contract and plumbing.

The load-bearing guarantee is that a sweep's rows are byte-identical
whether points run inline or fan out over worker processes.  The tests
run real (small) fig12- and fig18a-style points both ways and compare
full summary rows.
"""

import dataclasses
import os

import pytest

from repro.bench import experiments, parallel
from repro.bench.parallel import (
    PointSpec,
    resolve_jobs,
    run_sweep,
    sweep_rows,
)
from repro.bench.scale import Scale, current_scale
from repro.config import scale_fields

#: A tiny-but-real operating point; small enough for test budgets.
TEST_SCALE = Scale(name="test", num_keys=400, ops_per_client=30,
                   client_sweep=[4], clients=4, nic_scale=64.0, seed=7)


def _fig12_specs():
    """fig12-style points: two index families, one workload each."""
    return [
        PointSpec(index_name, workload, TEST_SCALE.num_keys,
                  TEST_SCALE.ops_per_client,
                  TEST_SCALE.cluster_config(clients=TEST_SCALE.clients),
                  chime_overrides=TEST_SCALE.chime_overrides())
        for workload in ("C", "A")
        for index_name in ("chime", "sherman")
    ]


def _fig18a_specs():
    """fig18a-style points: skew sensitivity via theta."""
    return [
        PointSpec("chime", "C", TEST_SCALE.num_keys,
                  TEST_SCALE.ops_per_client,
                  TEST_SCALE.cluster_config(clients=TEST_SCALE.clients),
                  theta=theta,
                  chime_overrides=TEST_SCALE.chime_overrides(),
                  extra=(("theta", theta),))
        for theta in (0.0, 0.99)
    ]


class TestResolveJobs:
    """Worker count: flag > ``REPRO_JOBS`` > cores - 1.  The variable is
    read where a ``Scale`` is built; ``resolve_jobs`` sees only fields."""

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert scale_fields({"jobs": 3})["jobs"] == 3
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert scale_fields({"jobs": None})["jobs"] == 5
        assert resolve_jobs(current_scale().jobs) == 5
        # ... and only there: the sweep layer itself ignores the variable.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_jobs() == 2

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            current_scale()

    def test_default_from_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        expected = max(1, (os.cpu_count() or 2) - 1)
        assert current_scale().jobs is None
        assert resolve_jobs() == expected

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestPointSpec:
    def test_spec_is_picklable(self):
        import pickle
        for spec in _fig12_specs():
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestRunSweep:
    def test_empty(self):
        assert run_sweep([]) == []

    def test_serial_matches_single_spec(self):
        spec = _fig12_specs()[0]
        assert run_sweep([spec], jobs=1)[0].summary() == \
            spec.run().summary()

    def test_fig12_serial_parallel_identical(self):
        specs = _fig12_specs()
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=2)
        assert [r.summary() for r in serial] == \
            [r.summary() for r in parallel]

    def test_fig18a_serial_parallel_identical(self):
        specs = _fig18a_specs()
        serial = sweep_rows(specs, jobs=1)
        parallel = sweep_rows(specs, jobs=2)
        assert serial == parallel
        assert [row["theta"] for row in serial] == [0.0, 0.99]

    def test_sweep_rows_merges_extra(self):
        rows = sweep_rows(_fig18a_specs()[:1], jobs=1)
        assert rows[0]["theta"] == 0.0
        assert rows[0]["index"]  # base summary fields still present

    def test_jobs_reaches_every_figure(self, monkeypatch):
        # ablation-rdwc and figplacement used to loop over run_point
        # serially, so --jobs / REPRO_JOBS silently did nothing for them.
        swept = []
        real_run_sweep = parallel.run_sweep

        def spy(specs, jobs=None):
            swept.append((len(list(specs)), jobs))
            return real_run_sweep(specs, jobs)

        monkeypatch.setattr(parallel, "run_sweep", spy)
        monkeypatch.setattr(experiments, "run_sweep", spy)
        for figure in (experiments.ablation_rdwc, experiments.figplacement):
            serial, fanned = (
                figure(dataclasses.replace(TEST_SCALE, jobs=jobs))
                for jobs in (1, 2))
            assert serial == fanned and len(serial) == 4
        assert swept == [(4, 1), (4, 2)] * 2
