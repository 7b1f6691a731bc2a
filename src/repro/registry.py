"""The pluggable index registry: one descriptor per paper legend entry.

Every layer that needs to instantiate an index by name — the bench
runner, the perf suite, the experiment sweeps, the chaos harness, the
CLI — used to carry its own if/elif dispatch plus string sniffing
(``name.endswith("indirect")``, ``name.startswith("chime")``, the
``KV_DISCRETE`` set).  This module collapses all of that onto one
table of :class:`IndexFamily` descriptors: a factory plus capability
flags that callers branch on instead of on name patterns.

Registering a new index family is one :func:`register` call; the CLI's
``--list-indexes``, the runner's :func:`build_index`, and every
capability check pick it up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import WorkloadError

__all__ = [
    "IndexFamily",
    "build_index",
    "families",
    "family_names",
    "get_family",
    "register",
]


@dataclass(frozen=True)
class IndexFamily:
    """One index family as it appears in the paper's figure legends.

    The *factory* receives ``(cluster, value_size, span, neighborhood,
    overrides)`` — the exact parameter surface the historical
    ``build_index`` exposed — and returns a bulk-loadable index whose
    ``client(ctx)`` method yields op coroutines.
    """

    #: Legend name ("chime", "smart-opt", ...), the registry key.
    name: str
    #: Structural family ("chime", "sherman", "smart", "rolex", ...);
    #: variants of one structure share it.
    family: str
    factory: Callable[..., object] = field(repr=False, default=None)
    description: str = ""
    #: ``client(ctx).scan(key, count)`` exists (YCSB-E runnable).
    supports_scan: bool = True
    #: Read only by perfbench, which audits these families' invariants;
    #: the chaos harness drives every family.
    supports_chaos: bool = False
    #: Values live in indirect blocks (variable-length KV variants).
    indirect_values: bool = False
    #: Bulk load pre-trains the model on future insert keys (§5.1 fn. 3).
    model_routed: bool = False
    #: The factory honours the ``chime_overrides`` dict.
    accepts_overrides: bool = False
    #: The family can be built as per-shard key-range sub-trees
    #: (:class:`repro.core.sharded.ShardedIndex`).  Model-routed families
    #: train a global model over the whole key distribution and cannot be
    #: range-partitioned; they are rejected at build time when
    #: ``num_shards > 1`` (a single shard routes everything to one
    #: sub-index and stays legal for any family).
    shardable: bool = True
    #: Run with an uncapped CN cache (the SMART-Opt methodology).
    unlimited_cache: bool = False
    #: ``ClusterConfig.sync_mode`` values the family declares.  Every
    #: lock-word family takes the one lock path of
    #: :class:`repro.core.family.FamilyClientBase`; the trees declare its
    #: CIDER-style queue and per-leaf adaptive switch, the model-routed
    #: families only the optimistic spin (the others are unmeasured there).
    sync_modes: Tuple[str, ...] = ("optimistic",)
    #: Where the family's operations execute by default: ``"cn"``
    #: (CN-side traversal over one-sided verbs), ``"mn"`` (offloaded to
    #: the MN CPU), or ``"hash"`` (CN-local hash routing, then one
    #: READ/WRITE).
    default_placement: str = "cn"


_REGISTRY: Dict[str, IndexFamily] = {}


def register(family: IndexFamily) -> IndexFamily:
    """Add *family* to the registry (last registration wins)."""
    _REGISTRY[family.name] = family
    return family


def get_family(name: str) -> IndexFamily:
    """Look up a legend name; raises :class:`WorkloadError` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise WorkloadError(
            f"unknown index name {name!r} (known: {known})") from None


def families() -> List[IndexFamily]:
    """Every registered family, in registration order."""
    return list(_REGISTRY.values())


def family_names() -> List[str]:
    """Registered legend names, in registration order."""
    return list(_REGISTRY)


def build_index(name: str, cluster,
                value_size: int = 8,
                span: Optional[int] = None,
                neighborhood: Optional[int] = None,
                chime_overrides: Optional[dict] = None):
    """Instantiate an index by its paper legend name."""
    family = get_family(name)
    sync_mode = cluster.config.sync_mode
    if sync_mode not in family.sync_modes:
        supported = ", ".join(family.sync_modes)
        raise WorkloadError(
            f"index family {name!r} does not support sync mode "
            f"{sync_mode!r} (supported: {supported})")
    if getattr(cluster, "shard_map", None) is not None:
        if not family.shardable and cluster.shard_map.num_shards > 1:
            raise WorkloadError(
                f"index family {name!r} cannot be key-range sharded "
                f"(num_shards={cluster.shard_map.num_shards}); "
                f"model-routed families train one global model and "
                f"hash-routed families stripe slots across MNs natively; "
                f"run it with num_shards <= 1")
        from repro.core.sharded import ShardedIndex

        index = ShardedIndex(cluster, family, value_size=value_size,
                             span=span, neighborhood=neighborhood,
                             chime_overrides=chime_overrides)
    else:
        index = family.factory(cluster, value_size=value_size, span=span,
                               neighborhood=neighborhood,
                               overrides=chime_overrides)
    index.registry_family = family
    return index


# --------------------------------------------------------------------------
# Factories (parameter handling identical to the historical dispatch)
# --------------------------------------------------------------------------

def _chime_factory(indirect: bool):
    def build(cluster, *, value_size, span, neighborhood, overrides):
        from repro.config import ChimeConfig
        from repro.core.chime import ChimeIndex

        kwargs = dict(value_size=value_size, indirect_values=indirect)
        if span is not None:
            kwargs["span"] = span
        if neighborhood is not None:
            kwargs["neighborhood"] = neighborhood
        if overrides:
            kwargs.update(overrides)
        return ChimeIndex(cluster, ChimeConfig(**kwargs))
    return build


def _sherman_factory(cluster, *, value_size, span, neighborhood, overrides):
    from repro.baselines.sherman import ShermanConfig, ShermanIndex

    return ShermanIndex(cluster, ShermanConfig(
        span=span or 64, value_size=value_size))


def _marlin_factory(cluster, *, value_size, span, neighborhood, overrides):
    from repro.baselines.marlin import MarlinIndex
    from repro.baselines.sherman import ShermanConfig

    return MarlinIndex(cluster, ShermanConfig(
        span=span or 64, value_size=value_size, indirect_values=True))


def _smart_factory(rcu: bool):
    def build(cluster, *, value_size, span, neighborhood, overrides):
        from repro.baselines.smart import SmartConfig, SmartIndex

        return SmartIndex(cluster, SmartConfig(value_size=value_size,
                                               rcu_updates=rcu))
    return build


def _rolex_factory(indirect: bool):
    def build(cluster, *, value_size, span, neighborhood, overrides):
        from repro.baselines.rolex import RolexConfig, RolexIndex

        return RolexIndex(cluster, RolexConfig(
            span=span or 16, value_size=value_size,
            indirect_values=indirect))
    return build


def _learned_factory(cluster, *, value_size, span, neighborhood, overrides):
    from repro.core.learned import LearnedChimeIndex

    return LearnedChimeIndex(cluster, span=span or 64,
                             neighborhood=neighborhood or 8,
                             value_size=value_size)


def _outback_factory(cluster, *, value_size, span, neighborhood, overrides):
    from repro.baselines.outback import OutbackConfig, OutbackIndex

    return OutbackIndex(cluster, OutbackConfig(value_size=value_size))


def _flexkv_factory(cluster, *, value_size, span, neighborhood, overrides):
    from repro.baselines.flexkv import FlexKVConfig, FlexKVIndex

    return FlexKVIndex(cluster, FlexKVConfig(value_size=value_size))


# --------------------------------------------------------------------------
# The built-in families (every legend entry of the paper's figures)
# --------------------------------------------------------------------------

#: Sync modes the tree families declare.
_BTREE_SYNC_MODES = ("optimistic", "pessimistic", "adaptive")

register(IndexFamily(
    name="chime", family="chime", factory=_chime_factory(indirect=False),
    description="CHIME hybrid B+ tree + hopscotch leaves (this paper)",
    supports_chaos=True, accepts_overrides=True,
    sync_modes=_BTREE_SYNC_MODES))
register(IndexFamily(
    name="chime-indirect", family="chime",
    factory=_chime_factory(indirect=True),
    description="CHIME with indirect values (variable-length KV, §4.5)",
    indirect_values=True, accepts_overrides=True,
    sync_modes=_BTREE_SYNC_MODES))
register(IndexFamily(
    name="sherman", family="sherman", factory=_sherman_factory,
    description="Sherman B+ tree baseline (SIGMOD '22)",
    sync_modes=_BTREE_SYNC_MODES))
register(IndexFamily(
    name="marlin", family="sherman", factory=_marlin_factory,
    description="Marlin: Sherman-style tree with indirect values",
    indirect_values=True, sync_modes=_BTREE_SYNC_MODES))
register(IndexFamily(
    name="smart", family="smart", factory=_smart_factory(rcu=False),
    description="SMART adaptive radix tree baseline (OSDI '23)"))
register(IndexFamily(
    name="smart-opt", family="smart", factory=_smart_factory(rcu=False),
    description="SMART with an unlimited CN cache (paper methodology)",
    unlimited_cache=True))
register(IndexFamily(
    name="smart-rcu", family="smart", factory=_smart_factory(rcu=True),
    description="SMART with RCU out-of-place updates (variable-length KV)"))
register(IndexFamily(
    name="rolex", family="rolex", factory=_rolex_factory(indirect=False),
    description="ROLEX learned index baseline (FAST '23)",
    model_routed=True, shardable=False))
register(IndexFamily(
    name="rolex-indirect", family="rolex",
    factory=_rolex_factory(indirect=True),
    description="ROLEX with indirect values (variable-length KV)",
    indirect_values=True, model_routed=True, shardable=False))
register(IndexFamily(
    name="chime-learned", family="chime-learned",
    factory=_learned_factory,
    description="CHIME leaves under a learned (PLA) internal structure",
    model_routed=True, shardable=False))
register(IndexFamily(
    name="outback", family="outback", factory=_outback_factory,
    description="Outback-style MPH routing: one-RTT point lookups",
    supports_scan=False, supports_chaos=True, shardable=False,
    default_placement="hash"))
register(IndexFamily(
    name="flexkv", family="flexkv", factory=_flexkv_factory,
    description="FlexKV-style partitioned KV, dynamic CN/MN placement",
    supports_scan=False, supports_chaos=True, shardable=False))
