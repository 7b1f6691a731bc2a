"""The one knob resolver (:mod:`repro.config`) and the rule it serves.

A knob is a ``Scale``/``ClusterConfig`` field.  Only the process edge
reads ``REPRO_*`` — ``current_scale()`` and the CLI — so precedence is
default < environment < flag < explicit ``cluster_config(...)``
argument, bad values raise a :class:`ConfigError` naming the variable
or flag, and anything built from a literal ``Scale`` (the pinned
tier-1 points, campaigns, perfbench) cannot see ambient knobs at all.
"""

import ast
import dataclasses
import pathlib

import pytest

import repro
from repro.bench.runner import prepare_point, run_workload
from repro.bench.scale import PRESETS, QUICK, Scale, current_scale
from repro.config import (
    KNOBS,
    KNOWN_ENV_VARS,
    ChimeConfig,
    ClusterConfig,
    env_value,
    scale_fields,
)
from repro.core.adaptive import SYNC_MODES
from repro.errors import ConfigError, ReproError
from repro.xpmt.runner import build_point_spec
from repro.xpmt.spec import CampaignPlan, CellSpec, relevant_env

#: Per knob: environment text, the value it parses to, a different
#: value for the flag, and environment texts the validator must reject.
CASES = {
    "scale": ("Full", "full", None, ["bogus"]),
    "seed": ("99", 99, 5, ["not-a-seed", "1.5"]),
    "jobs": ("5", 5, 3, ["many", "0"]),
    "depth": ("4", 4, 2, ["many", "0"]),
    "sync_mode": (" Pessimistic ", "pessimistic", "adaptive", ["bogus"]),
    "num_mns": ("2", 2, 3, ["two", "0"]),
    "num_shards": ("2", 2, 3, ["x", "-1"]),
    "cache_mode": ("partitioned", "partitioned", "shared", ["wat"]),
    "rebalance": ("ON", True, False, ["maybe", "2"]),
    "placement": ("mn", "mn", "cn", ["gpu"]),
    "campaign_db": ("c.sqlite", "c.sqlite", None, []),
    "campaign_id": ("nightly", "nightly", None, []),
    "commit": ("feedface", "feedface", None, []),
}

#: The ``ClusterConfig`` field a ``Scale`` knob lands in (jobs: none).
CONFIG_FIELD = {"depth": "pipeline_depth", "rebalance": "rebalance_shards",
                "jobs": None}

#: Every result-affecting ambient knob, set to a non-default value.
AMBIENT = {"REPRO_SYNC_MODE": "pessimistic", "REPRO_SHARDS": "2",
           "REPRO_NUM_MNS": "2", "REPRO_DEPTH": "4",
           "REPRO_CACHE_MODE": "partitioned", "REPRO_REBALANCE": "1",
           "REPRO_PLACEMENT": "cn"}


@pytest.fixture
def clean_env(monkeypatch):
    for name in KNOWN_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestKnobTable:
    def test_table_covers_every_case_and_matches_scale_defaults(self):
        assert set(CASES) == set(KNOBS)
        defaults = {f.name: f.default for f in dataclasses.fields(Scale)}
        for knob in KNOBS.values():
            if knob.scale_field and knob.default is not None:
                assert defaults[knob.name] == knob.default, knob.name
        assert KNOBS["sync_mode"].choices == SYNC_MODES
        assert KNOBS["scale"].choices == tuple(PRESETS)

    @pytest.mark.parametrize("name", list(KNOBS))
    def test_default_env_flag_explicit_precedence(self, name, clean_env):
        knob = KNOBS[name]
        text, value, flag, _bad = CASES[name]
        # default: nothing set, the preset stands untouched
        assert env_value(name) is None
        assert scale_fields() == {}
        assert current_scale() == PRESETS["default"]
        # environment beats the default ...
        clean_env.setenv(knob.env, text)
        assert env_value(name) == value
        if not knob.scale_field:
            return
        assert getattr(current_scale(), name) == value
        # ... but only for commands that honour the variable
        assert scale_fields({}, honour_env=[]) == {}
        # flag beats environment
        assert scale_fields({name: flag}) == {name: flag}
        # explicit cluster_config argument beats the Scale field
        field = CONFIG_FIELD.get(name, name)
        if field is not None:
            scale = dataclasses.replace(QUICK, **{name: flag})
            assert getattr(scale.cluster_config(), field) == flag
            pinned = scale.cluster_config(**{field: value})
            assert getattr(pinned, field) == value

    @pytest.mark.parametrize("name,bad", [(name, bad)
                                          for name, case in CASES.items()
                                          for bad in case[3]])
    def test_bad_value_names_its_source(self, name, bad, clean_env):
        knob = KNOBS[name]
        clean_env.setenv(knob.env, bad)
        with pytest.raises(ConfigError, match=knob.env):
            env_value(name)
        with pytest.raises(ConfigError, match=knob.env):
            current_scale()
        with pytest.raises(ConfigError, match=knob.flag):
            knob.parse(bad, knob.flag)

    def test_config_error_is_typed_both_ways(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)

    def test_rebalance_words(self, clean_env):
        for word, expected in (("1", True), ("true", True), ("Yes", True),
                               ("on", True), ("0", False), ("FALSE", False),
                               ("no", False), ("off", False)):
            clean_env.setenv("REPRO_REBALANCE", word)
            assert env_value("rebalance") is expected


class TestClusterConfigValidates:
    @pytest.mark.parametrize("field,bad", [
        ("pipeline_depth", 0), ("sync_mode", "bogus"),
        ("cache_mode", "wat"), ("placement", "gpu")])
    def test_hand_built_config_cannot_carry_a_typo(self, field, bad):
        with pytest.raises(ConfigError, match=f"ClusterConfig.{field}"):
            ClusterConfig(**{field: bad})
        with pytest.raises(ConfigError):
            ClusterConfig().scaled(**{field: bad})

    def test_run_workload_depth_none_means_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEPTH", "4")  # must not matter
        tiny = Scale(name="tiny", num_keys=300, ops_per_client=20,
                     client_sweep=[2], clients=2, nic_scale=64.0, depth=3)

        def run(**kwargs):
            cluster, index, context = prepare_point(
                "chime", "C", tiny.num_keys, tiny.ops_per_client,
                tiny.cluster_config())
            return run_workload(cluster, index, "C", tiny.ops_per_client,
                                context, **kwargs)

        assert run().notes["sched.depth"] == 3.0
        assert run(depth=2).notes["sched.depth"] == 2.0
        assert "sched.depth" not in run(depth=1).notes
        with pytest.raises(ConfigError):
            run(depth=0)


@pytest.mark.parametrize("config", [ChimeConfig, ClusterConfig])
def test_every_config_field_is_read_somewhere(config):
    """A field nothing reads is a switch that silently does nothing
    (``ChimeConfig.hopscotch_leaf`` built hopscotch leaves either way):
    each must appear as an attribute access under ``src/repro`` outside
    ``config.py`` — a string ``getattr`` does not count."""
    source = pathlib.Path(repro.__file__).parent
    read = {node.attr
            for path in source.rglob("*.py") if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unread = {field.name for field in dataclasses.fields(config)} - read
    assert not unread


class TestPinnedSuitesIgnoreAmbientKnobs:
    def test_literal_scale_points(self, clean_env):
        pinned = Scale(name="pinned", num_keys=8000, ops_per_client=200,
                       client_sweep=[], clients=16, nic_scale=32.0,
                       seed=1234)

        def points():
            return [
                pinned.point("chime", "C"),
                pinned.point("chime", "C", pinned.cluster_config(
                    clients=4, pipeline_depth=4)),
                pinned.point("chime", "A", pinned.cluster_config(
                    clients=24, num_mns=4, num_shards=4)),
                pinned.point("flexkv", "C", pinned.cluster_config(
                    cache_bytes=2048), theta=0.0)]

        clean = points()
        for name, value in AMBIENT.items():
            clean_env.setenv(name, value)
        assert points() == clean
        config = clean[0].cluster_config
        assert (config.sync_mode, config.pipeline_depth, config.num_shards,
                config.placement) == ("optimistic", 1, 0, "auto")

    def test_campaign_points(self, clean_env):
        tiny = Scale(name="tiny", num_keys=600, ops_per_client=20,
                     client_sweep=[2], clients=2, nic_scale=64.0, seed=7)
        cell = CellSpec(index="flexkv", workload="C", clients=2)
        plan = CampaignPlan(scale=tiny, cells=(cell,), seeds=(7,))
        clean = build_point_spec(plan, cell, 7)
        for name, value in AMBIENT.items():
            clean_env.setenv(name, value)
        assert build_point_spec(plan, cell, 7) == clean
        assert clean.cluster_config.placement == "auto"
        assert not clean.cluster_config.rebalance_shards
        # The one knob with no cell field still re-keys stored points.
        assert relevant_env() == {"REPRO_REBALANCE": "1"}
