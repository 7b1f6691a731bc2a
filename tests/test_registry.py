"""Tests for the pluggable index registry (:mod:`repro.registry`)."""

import pytest

from repro import registry
from repro.baselines.flexkv import FlexKVIndex
from repro.baselines.marlin import MarlinIndex
from repro.baselines.outback import OutbackIndex
from repro.baselines.rolex import RolexIndex
from repro.baselines.sherman import ShermanIndex
from repro.baselines.smart import SmartIndex
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.chime import ChimeIndex
from repro.core.learned import LearnedChimeIndex
from repro.errors import WorkloadError

#: Every paper legend entry and the class build_index must produce.
EXPECTED_CLASSES = {
    "chime": ChimeIndex,
    "chime-indirect": ChimeIndex,
    "sherman": ShermanIndex,
    "marlin": MarlinIndex,
    "smart": SmartIndex,
    "smart-opt": SmartIndex,
    "smart-rcu": SmartIndex,
    "rolex": RolexIndex,
    "rolex-indirect": RolexIndex,
    "chime-learned": LearnedChimeIndex,
    "outback": OutbackIndex,
    "flexkv": FlexKVIndex,
}


def _cluster() -> Cluster:
    return Cluster(ClusterConfig(num_cns=1, clients_per_cn=2, seed=3))


class TestRegistryTable:
    def test_all_legend_names_registered(self):
        assert set(registry.family_names()) == set(EXPECTED_CLASSES)

    def test_family_names_preserve_registration_order(self):
        names = registry.family_names()
        assert names[0] == "chime"
        assert sorted(names) == sorted(set(names))  # no duplicates

    def test_families_rows_match_names(self):
        assert [f.name for f in registry.families()] == \
            registry.family_names()

    def test_unknown_name_raises_workload_error_listing_known(self):
        with pytest.raises(WorkloadError) as err:
            registry.get_family("btree-9000")
        assert "btree-9000" in str(err.value)
        assert "chime" in str(err.value)  # names the alternatives


class TestCapabilityFlags:
    def test_chime_supports_chaos_and_overrides(self):
        family = registry.get_family("chime")
        assert family.supports_chaos
        assert family.accepts_overrides

    def test_learned_scans(self):
        """CHIME-Learned's leaves are CHIME's, and the model-routed group
        scans them: the family no longer opts out of scans."""
        assert registry.get_family("chime-learned").supports_scan
        index = registry.build_index("chime-learned", _cluster())
        ctx = next(iter(_cluster().clients()))
        assert hasattr(index.client(ctx), "scan")

    def test_scan_flag_matches_client_surface(self):
        cluster = _cluster()
        ctx = next(iter(cluster.clients()))
        for family in registry.families():
            index = registry.build_index(family.name, _cluster())
            has_scan = hasattr(index.client(ctx), "scan")
            assert has_scan == family.supports_scan, family.name

    def test_model_routed_families(self):
        routed = {f.name for f in registry.families() if f.model_routed}
        assert routed == {"rolex", "rolex-indirect", "chime-learned"}

    def test_indirect_value_families(self):
        indirect = {f.name for f in registry.families()
                    if f.indirect_values}
        assert indirect == {"chime-indirect", "marlin", "rolex-indirect"}

    def test_only_smart_opt_gets_unlimited_cache(self):
        uncapped = {f.name for f in registry.families()
                    if f.unlimited_cache}
        assert uncapped == {"smart-opt"}


class TestBuildIndex:
    @pytest.mark.parametrize("name", sorted(EXPECTED_CLASSES))
    def test_builds_expected_class(self, name):
        index = registry.build_index(name, _cluster())
        assert isinstance(index, EXPECTED_CLASSES[name])

    @pytest.mark.parametrize("name", sorted(EXPECTED_CLASSES))
    def test_tags_registry_family(self, name):
        index = registry.build_index(name, _cluster())
        assert index.registry_family is registry.get_family(name)

    def test_unknown_index_raises(self):
        with pytest.raises(WorkloadError):
            registry.build_index("nope", _cluster())

    def test_chime_overrides_reach_config(self):
        index = registry.build_index(
            "chime", _cluster(), chime_overrides={"hotspot_bytes": 4096})
        assert index.config.hotspot_bytes == 4096

    def test_span_and_neighborhood_forwarded(self):
        index = registry.build_index("chime", _cluster(), span=32,
                                     neighborhood=4)
        assert index.config.span == 32
        assert index.config.neighborhood == 4

    def test_indirect_variants_set_config_flag(self):
        assert registry.build_index(
            "chime-indirect", _cluster()).config.indirect_values
        assert not registry.build_index(
            "chime", _cluster()).config.indirect_values

    def test_register_last_wins_and_is_restorable(self):
        original = registry.get_family("sherman")
        try:
            registry.register(registry.IndexFamily(
                name="sherman", family="sherman",
                factory=original.factory, description="shadowed"))
            assert registry.get_family("sherman").description == "shadowed"
        finally:
            registry.register(original)
        assert registry.get_family("sherman") is original
