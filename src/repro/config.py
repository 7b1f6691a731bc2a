"""Top-level configuration dataclasses.

Defaults mirror the paper's setup (§5.1) with byte budgets scaled for
simulated datasets: the paper runs 60 M keys with a 100 MB cache and a
30 MB hotspot buffer per CN; experiments here scale those budgets by
``dataset_size / 60e6`` so cache pressure is comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional

from repro.rdma.nic import NicSpec
from repro.retry import RetryPolicy

#: The paper's dataset size; used as the budget-scaling reference.
PAPER_DATASET_SIZE = 60_000_000

#: Every ``REPRO_*`` environment knob any layer resolves.  Modules that
#: define a knob keep their own ``*_ENV`` constant next to the consuming
#: code; this central list exists so the CLI can warn about typos
#: (``REPRO_DETPH=4`` silently doing nothing) at startup.  It is kept in
#: sync by ``test_known_env_vars_match_source_literals`` in
#: ``tests/test_access.py``, which fails in both directions when this
#: list and the quoted ``"REPRO_*"`` literals in the source tree disagree.
KNOWN_ENV_VARS = frozenset(
    {
        "REPRO_CACHE_MODE",      # bench.scale: CN cache admission mode
        "REPRO_CAMPAIGN_DB",     # xpmt.record: campaign store path
        "REPRO_CAMPAIGN_ID",     # xpmt.record: campaign id override
        "REPRO_COMMIT",          # xpmt.spec: commit hash override
        "REPRO_DEPTH",           # sched: op coroutines per client
        "REPRO_JOBS",            # bench.parallel: sweep worker count
        "REPRO_NUM_MNS",         # bench.scale: memory node count
        "REPRO_PLACEMENT",       # baselines.flexkv: cn / mn / auto
        "REPRO_REBALANCE",       # bench.scale: hot-shard rebalancer
        "REPRO_SCALE",           # bench.scale: preset name
        "REPRO_SEED",            # bench.scale: RNG seed override
        "REPRO_SHARDS",          # bench.scale: key-space shard count
        "REPRO_SYNC_MODE",       # bench.scale: lock synchronization mode
    }
)


def unknown_env_vars(environ: Optional[Mapping[str, str]] = None) -> List[str]:
    """``REPRO_*`` names present in *environ* but known to no layer.

    The CLI warns about these at startup; a typoed knob otherwise
    silently falls back to its default.
    """
    if environ is None:
        import os

        environ = os.environ
    return sorted(
        key
        for key in environ
        if key.startswith("REPRO_") and key not in KNOWN_ENV_VARS
    )

#: The paper's per-CN cache budget (100 MB) and hotspot buffer (30 MB).
PAPER_CACHE_BYTES = 100 * 1024 * 1024
PAPER_HOTSPOT_BYTES = 30 * 1024 * 1024


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and resource envelope of the simulated DM cluster."""

    num_cns: int = 1
    num_mns: int = 1
    clients_per_cn: int = 16
    #: Per-CN index cache budget in bytes (None = unlimited, as SMART-Opt).
    cache_bytes: Optional[int] = 1 << 20
    #: Per-MN DRAM region size in bytes.
    region_bytes: int = 1 << 26
    #: Per-client allocation chunk (the paper uses 16 MB on 64 GB MNs;
    #: scaled down with the region so many clients fit).
    alloc_chunk_bytes: int = 1 << 18
    mn_nic: NicSpec = field(default_factory=NicSpec)
    #: None disables CN-side NIC modelling (MN NICs are the bottleneck in
    #: every paper experiment: 640 clients against one MN).
    cn_nic: Optional[NicSpec] = None
    #: Model torn (cache-line-granular) WRITE application.
    torn_writes: bool = True
    #: Enable read-delegation / write-combining on each CN.
    rdwc: bool = True
    #: Serialize same-node lock attempts through a CN-local lock table
    #: (Sherman's optimization, adopted by all indexes for fairness).
    local_lock_table: bool = True
    #: Lease-based node locks: the lock line carries an
    #: (owner, epoch, expiry) lease word acquired by read + full-word CAS,
    #: and survivors steal leases orphaned by a crashed CN past their
    #: expiry (see DESIGN.md "Failure model & recovery").
    lock_leases: bool = False
    #: Lease validity window in simulated seconds.  Must comfortably
    #: exceed the longest lock hold time (including a leaf split), or
    #: live holders raise :class:`~repro.errors.LockLeaseExpiredError`.
    lease_duration: float = 200e-6
    #: Lock synchronization mode: ``optimistic`` (the historical masked-
    #: CAS spin, default), ``pessimistic`` (CIDER-style FIFO ticket queue
    #: acquired with one FAA, with CN-local delegation handoff), or
    #: ``adaptive`` (per-leaf auto-switch on a decaying CAS-failure-rate
    #: estimator; see :mod:`repro.core.adaptive`).
    sync_mode: str = "optimistic"
    #: Outstanding op coroutines ("lanes") per client — DEX-style
    #: coroutine depth.  1 (the default) is the historical strictly
    #: serial client loop, event-for-event; higher depths overlap that
    #: many ops per client on its queue pair (see :mod:`repro.sched`).
    pipeline_depth: int = 1
    #: Key-space shards (see :mod:`repro.cluster.shards`).  0 (the
    #: default) keeps the historical single-pool behavior: one index
    #: tree, allocations round-robin striped over every MN.  >= 1 builds
    #: the index as one sub-tree per contiguous key-range shard, each
    #: homed on one MN; ``num_shards=1`` with ``num_mns=1`` is
    #: event-sequence identical to the legacy path.
    num_shards: int = 0
    #: CN cache admission policy under sharding: ``shared`` (every CN
    #: caches any shard's nodes, the historical behavior) or
    #: ``partitioned`` (DEX-style: each CN's cache only admits nodes of
    #: the shards it owns; ownership handoff invalidates admitted lines).
    cache_mode: str = "shared"
    #: Start the hot-shard rebalancer (decaying-EWMA detection + online
    #: shard migration) alongside the workload (sharded mode only).
    rebalance_shards: bool = False
    #: RNG seed for client workload streams.
    seed: int = 42

    @property
    def total_clients(self) -> int:
        return self.num_cns * self.clients_per_cn

    def scaled(self, **overrides) -> "ClusterConfig":
        """A copy with fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)


def scale_budget(paper_bytes: int, dataset_size: int) -> int:
    """Scale one of the paper's byte budgets to a smaller dataset."""
    scaled = int(paper_bytes * dataset_size / PAPER_DATASET_SIZE)
    return max(scaled, 4096)


@dataclass(frozen=True)
class ChimeConfig:
    """CHIME index parameters and feature switches (§5.1 defaults).

    The feature switches exist for the Figure 15 factor analysis: applying
    them one by one to a Sherman-like base reproduces each technique's
    contribution.
    """

    span: int = 64
    neighborhood: int = 8
    key_size: int = 8
    value_size: int = 8
    #: Replace sorted-array leaves with hopscotch leaf nodes.
    hopscotch_leaf: bool = True
    #: Piggyback the vacancy bitmap on lock words via masked-CAS.
    vacancy_bitmap: bool = True
    #: Replicate leaf metadata every H entries (vs a dedicated header READ).
    metadata_replication: bool = True
    #: Reuse sibling pointers for cache/half-split validation instead of
    #: replicating fence keys (saves 2*key_size bytes per replica).
    sibling_validation: bool = True
    #: Enable the hotness-aware speculative read path.
    speculative_read: bool = True
    #: Per-CN hotspot buffer budget in bytes (0 disables the buffer).
    hotspot_bytes: int = 1 << 19
    #: Store an 8-byte pointer per leaf entry and the value in an indirect
    #: block (variable-length KV support, §4.5).
    indirect_values: bool = False
    #: Model CXL 3.0 atomics instead of RDMA masked-CAS (§4.5): the lock
    #: CAS cannot piggyback the vacancy bitmap, so writers pay a dedicated
    #: READ of the lock word after acquiring it.
    cxl_atomics: bool = False
    #: Target leaf fill fraction for bulk loading.
    bulk_load_factor: float = 0.7
    #: Retry budget/backoff for client operations (None = the default
    #: policy, which matches the historical constants exactly).
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.neighborhood < 1 or self.neighborhood > 16:
            raise ValueError("neighborhood must be in [1, 16] (2-byte bitmap)")
        if self.span < self.neighborhood:
            raise ValueError("span must be >= neighborhood")
        if not self.hopscotch_leaf and self.vacancy_bitmap:
            raise ValueError("vacancy bitmap requires hopscotch leaves")
