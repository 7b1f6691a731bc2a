"""Experiment scaling presets.

The paper's testbed is 60 M keys, 640 clients, and one 100 Gbps NIC; a
Python discrete-event simulation cannot run that point count per figure,
so experiments scale *all* quantities together, preserving the regimes
the figures depend on:

* the NIC's bandwidth and IOPS are divided by ``nic_scale`` (latency is
  kept real), so saturation occurs at ``640 / nic_scale`` clients;
* byte budgets (CN cache, hotspot buffer) scale with the dataset size,
  keeping cache pressure comparable (paper: 100 MB + 30 MB at 60 M keys);
* keys are sampled sparsely from a large key space, as YCSB's hashed
  keys are.

``current_scale()`` selects a preset with the ``REPRO_SCALE``
environment variable (``quick`` / ``default`` / ``full``).
EXPERIMENTS.md records which preset produced the committed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.bench.runner import PointSpec
from repro.config import (
    ClusterConfig,
    KNOBS,
    PAPER_CACHE_BYTES,
    PAPER_DATASET_SIZE,
    PAPER_HOTSPOT_BYTES,
    env_value,
    scale_fields,
)
from repro.rdma.nic import NicSpec
from repro.registry import get_family


@dataclass(frozen=True)
class Scale:
    """One scaling preset."""

    name: str
    num_keys: int
    ops_per_client: int
    #: Client counts for throughput-latency sweeps.
    client_sweep: List[int]
    #: Single operating point used by non-sweep experiments.
    clients: int
    #: Divide the paper NIC's bandwidth and IOPS by this.
    nic_scale: float
    num_mns: int = 1
    #: 1 = dense keys (YCSB's sequential record ids); > 1 samples keys
    #: sparsely from a key space this many times larger.
    key_space_factor: int = 1
    seed: int = 42
    #: Run-level knobs (rows of :data:`repro.config.KNOBS`): every
    #: figure point built from this scale inherits them through
    #: :meth:`cluster_config`, unless the figure pins its own value.
    depth: int = 1
    sync_mode: str = "optimistic"
    #: 0 = the legacy striped pool (multi-MN figures like fig3c rely on
    #: striping); the CLI defaults to one shard per MN instead.
    num_shards: int = 0
    cache_mode: str = "shared"
    rebalance: bool = False
    placement: str = "auto"
    #: Sweep worker processes (None = cores - 1); never affects results.
    jobs: Optional[int] = None

    @property
    def key_space(self) -> int:
        if self.key_space_factor <= 1:
            return 0  # dense dataset
        return self.num_keys * self.key_space_factor

    @property
    def cache_bytes(self) -> int:
        scaled = int(PAPER_CACHE_BYTES * self.num_keys / PAPER_DATASET_SIZE)
        return max(scaled, 16 * 1024)

    @property
    def hotspot_bytes(self) -> int:
        scaled = int(PAPER_HOTSPOT_BYTES * self.num_keys / PAPER_DATASET_SIZE)
        return max(scaled, 4 * 1024)

    def nic_spec(self) -> NicSpec:
        return NicSpec(bandwidth=12.5e9 / self.nic_scale,
                       iops=120e6 / self.nic_scale,
                       latency=1.5e-6)

    def cluster_config(self, clients: Optional[int] = None,
                       cache_bytes: Optional[int] = -1,
                       num_cns: int = 2, **overrides) -> ClusterConfig:
        """A cluster config for one run (``cache_bytes=-1`` = preset).

        *overrides* are :class:`ClusterConfig` fields (``num_mns``,
        ``seed``, ``sync_mode``, ``num_shards``, ``cache_mode``,
        ``rebalance_shards``, ``pipeline_depth``, ``placement``, ...).
        Precedence is explicit argument > this scale's field; None
        means "not given".  Nothing here reads the environment: ambient
        ``REPRO_*`` values enter only where a ``Scale`` is built
        (:func:`current_scale` and the CLI).
        """
        total_clients = clients if clients is not None else self.clients
        fields = dict(
            num_cns=num_cns,
            num_mns=self.num_mns,
            clients_per_cn=max(1, total_clients // num_cns),
            cache_bytes=self.cache_bytes if cache_bytes == -1 else cache_bytes,
            region_bytes=1 << 27,
            mn_nic=self.nic_spec(),
            sync_mode=self.sync_mode,
            pipeline_depth=self.depth,
            num_shards=self.num_shards,
            cache_mode=self.cache_mode,
            rebalance_shards=self.rebalance,
            placement=self.placement,
            seed=self.seed,
        )
        fields.update((name, value) for name, value in overrides.items()
                      if value is not None)
        return ClusterConfig(**fields)

    def chime_overrides(self, index_name: Optional[str] = None,
                        **extra) -> Optional[dict]:
        """CHIME config overrides at this scale (the scaled hotspot
        buffer) plus *extra*; None for an *index_name* whose family
        takes no overrides."""
        if (index_name is not None
                and not get_family(index_name).accepts_overrides):
            return None
        return {"hotspot_bytes": self.hotspot_bytes, **extra}

    def point(self, index_name: str, workload_name: str,
              config: Optional[ClusterConfig] = None,
              overrides: Optional[dict] = None, **fields) -> PointSpec:
        """The measurement point of *index_name* on YCSB *workload_name*
        at this scale.

        Fills ``num_keys``, ``ops_per_client``, ``key_space``, the CHIME
        overrides (:meth:`chime_overrides` plus *overrides*) and the
        cluster config (*config*, else :meth:`cluster_config`).
        *fields* are the remaining :class:`PointSpec` fields; naming a
        size field there pins it to a non-preset value.
        """
        sized = dict(num_keys=self.num_keys,
                     ops_per_client=self.ops_per_client,
                     key_space=self.key_space)
        sized.update(fields)
        return PointSpec(
            index_name, workload_name,
            cluster_config=(config if config is not None
                            else self.cluster_config()),
            chime_overrides=self.chime_overrides(index_name,
                                                 **(overrides or {})),
            **sized)


QUICK = Scale(name="quick", num_keys=10_000, ops_per_client=120,
              client_sweep=[4, 16, 40], clients=24, nic_scale=32.0)

DEFAULT = Scale(name="default", num_keys=40_000, ops_per_client=250,
                client_sweep=[4, 12, 24, 40, 56], clients=40,
                nic_scale=16.0)

FULL = Scale(name="full", num_keys=200_000, ops_per_client=400,
             client_sweep=[8, 16, 32, 64, 96], clients=64, nic_scale=10.0)

PRESETS = {"quick": QUICK, "default": DEFAULT, "full": FULL}


def current_scale() -> Scale:
    """The preset selected by ``REPRO_SCALE`` (default: ``default``)
    with every other ``REPRO_*`` knob applied to its fields.

    This is how ambient configuration reaches the ``pytest benchmarks/``
    harness and ``scale=None`` experiment calls — e.g. ``REPRO_SEED``
    lets campaign replicates rerun the committed suites under an
    explicit seed.  Bad values raise :class:`~repro.errors.ConfigError`.
    """
    name = env_value("scale") or KNOBS["scale"].default
    return replace(PRESETS[name], **scale_fields())
