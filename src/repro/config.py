"""Top-level configuration dataclasses.

Defaults mirror the paper's setup (§5.1) with byte budgets scaled for
simulated datasets: the paper runs 60 M keys with a 100 MB cache and a
30 MB hotspot buffer per CN; experiments here scale those budgets by
``dataset_size / 60e6`` so cache pressure is comparable.

Also home of the run-level knob table (:data:`KNOBS`) and the only code
under ``src/`` that reads the process environment; see DESIGN.md §4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.rdma.nic import NicSpec
from repro.retry import RetryPolicy

#: The paper's dataset size; used as the budget-scaling reference.
PAPER_DATASET_SIZE = 60_000_000

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


@dataclass(frozen=True)
class Knob:
    """One row of the knob table: how a run-level setting is spelled,
    validated and defaulted.

    ``name`` is the ``Scale`` field the knob sets and the argparse
    destination of its flag; rows with ``scale_field=False`` select a
    preset or route results instead of configuring a run.
    """

    name: str
    env: str
    flag: Optional[str]
    kind: type
    #: What a run gets when neither flag nor variable is given (None =
    #: decided elsewhere, as *default_text* says in help strings).
    default: Any
    help: str
    default_text: str = ""
    choices: Tuple[str, ...] = ()
    minimum: Optional[int] = None
    scale_field: bool = True

    def check(self, value: Any, source: str) -> Any:
        """*value* if it is in range, else a :class:`ConfigError`
        naming *source* (a flag, a variable or a config field)."""
        if self.choices and value not in self.choices:
            raise ConfigError(f"{source} must be one of "
                              f"{', '.join(self.choices)}: {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise ConfigError(f"{source} must be >= {self.minimum}: {value!r}")
        return value

    def parse(self, text: str, source: str) -> Any:
        """The validated value of *text* as typed on a command line or
        found in the environment."""
        text = text.strip()
        if self.kind is int:
            try:
                value: Any = int(text)
            except ValueError:
                raise ConfigError(
                    f"{source} must be an integer: {text!r}") from None
        elif self.kind is bool:
            value = _BOOL_WORDS.get(text.lower())
            if value is None:
                raise ConfigError(f"{source} must be one of "
                                  f"{', '.join(_BOOL_WORDS)}: {text!r}")
        else:
            value = text.lower() if self.choices else text
        return self.check(value, source)


#: Every run-level knob.  Adding one is a row here plus the ``Scale``
#: field it names; flags, ``REPRO_*`` handling, help strings and
#: :data:`KNOWN_ENV_VARS` follow from the row.
KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("scale", "REPRO_SCALE", "--scale", str, "default",
         "scaling preset", choices=("quick", "default", "full"),
         scale_field=False),
    Knob("seed", "REPRO_SEED", "--seed", int, None,
         "RNG seed for datasets and client op streams", "the preset's"),
    Knob("jobs", "REPRO_JOBS", "--jobs", int, None,
         "worker processes for sweep points (1 = serial; forced serial "
         "while tracing)", "cores-1", minimum=1),
    Knob("depth", "REPRO_DEPTH", "--depth", int, 1,
         "op coroutines per client (1 = the strictly serial client loop)",
         minimum=1),
    Knob("sync_mode", "REPRO_SYNC_MODE", "--sync-mode", str, "optimistic",
         "lock synchronization mode",
         choices=("optimistic", "pessimistic", "adaptive")),
    Knob("num_mns", "REPRO_NUM_MNS", "--num-mns", int, 1,
         "memory nodes per cluster", minimum=1),
    Knob("num_shards", "REPRO_SHARDS", "--shards", int, 0,
         "key-space shards (0 = the legacy striped pool)",
         "one per MN when there are several, else 0", minimum=0),
    Knob("cache_mode", "REPRO_CACHE_MODE", "--cache-mode", str, "shared",
         "CN cache admission under sharding",
         choices=("shared", "partitioned")),
    Knob("rebalance", "REPRO_REBALANCE", "--rebalance", bool, False,
         "run the hot-shard rebalancer (EWMA detection + online "
         "migration) alongside sharded workloads", "off"),
    Knob("placement", "REPRO_PLACEMENT", "--placement", str, "auto",
         "index placement, read by placement-aware families (flexkv); "
         "auto = the cache-pressure policy", choices=("cn", "mn", "auto")),
    Knob("campaign_db", "REPRO_CAMPAIGN_DB", None, str, "",
         "campaign store that figure tables are also written to",
         scale_field=False),
    Knob("campaign_id", "REPRO_CAMPAIGN_ID", None, str, "",
         "campaign id those figure tables are attributed to",
         scale_field=False),
    Knob("commit", "REPRO_COMMIT", None, str, "",
         "commit hash results are keyed under (default: git HEAD)",
         scale_field=False),
)}

#: Every ``REPRO_*`` name some layer honours; anything else with that
#: prefix is a typo the CLI warns about (:func:`unknown_env_vars`).
KNOWN_ENV_VARS = frozenset(knob.env for knob in KNOBS.values())


def repro_environ() -> Dict[str, str]:
    """The process's ``REPRO_*`` variables.

    The only ``os.environ`` access under ``src/``: everything below the
    process edge (``current_scale()`` and the CLI) takes fields.
    """
    return {key: value for key, value in os.environ.items()
            if key.startswith("REPRO_")}


def env_value(name: str, environ: Optional[Mapping[str, str]] = None) -> Any:
    """Knob *name*'s validated environment value; None when unset/blank."""
    knob = KNOBS[name]
    if environ is None:
        environ = repro_environ()
    text = environ.get(knob.env, "").strip()
    return knob.parse(text, knob.env) if text else None


def scale_fields(flags: Optional[Mapping[str, Any]] = None,
                 honour_env: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """``Scale`` field values given by *flags* (name -> value, None =
    not given) or else the environment, for ``dataclasses.replace``.

    Only knobs named in *honour_env* (default: all) fall back to their
    variable; knobs set by neither are left out, so the preset's own
    value stands.
    """
    environ = repro_environ()
    fields = {}
    for knob in KNOBS.values():
        if not knob.scale_field:
            continue
        value = flags.get(knob.name) if flags else None
        if value is None and (honour_env is None or knob.name in honour_env):
            value = env_value(knob.name, environ)
        if value is not None:
            fields[knob.name] = value
    return fields


def unknown_env_vars(environ: Optional[Mapping[str, str]] = None) -> List[str]:
    """``REPRO_*`` names present in *environ* but known to no layer.

    The CLI warns about these at startup; a typoed knob otherwise
    silently falls back to its default.
    """
    if environ is None:
        environ = repro_environ()
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
    #: Where placement-aware families (flexkv) run index logic: a static
    #: ``cn`` or ``mn``, or ``auto`` for the cache-pressure policy.
    placement: str = "auto"
    #: RNG seed for client workload streams.
    seed: int = 42

    def __post_init__(self) -> None:
        for name, attr in (("depth", "pipeline_depth"),
                           ("sync_mode", "sync_mode"),
                           ("cache_mode", "cache_mode"),
                           ("placement", "placement")):
            KNOBS[name].check(getattr(self, attr), f"ClusterConfig.{attr}")

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
