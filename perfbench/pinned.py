"""The four pinned workloads and the one way to build them.

Every knob the simulator would otherwise read from a ``REPRO_*``
variable is passed explicitly here, so a section's result depends only
on ``(workload, seed, smoke)``.

Sizes: all four share 100 000 dense keys, ``nic_scale=32``, 2 CNs and
the scaled paper budgets (``Scale.cache_bytes`` = 174 762 B of index
cache per CN, 52 428 B of hotspot buffer).  Ops per client are the
ISSUE's reference sizes shrunk by the one common factor 0.65 (the
driver's time cap leaves ~25 s per run, and a run needs several
sections for a median), which keeps every timed section >= 3 s on the
reference 2-core box; ``scan-insert`` then keeps 12 168 post-warm-up
latency samples, i.e. 12 beyond p99.9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import prepare_point
from repro.bench.scale import Scale
from repro.registry import get_family

NUM_KEYS = 100_000
NIC_SCALE = 32.0
NUM_CNS = 2
THETA = 0.99
#: Share of each client's ops excluded from latency statistics, so the
#: CN caches and the hotspot buffer are filled before statistics start.
WARMUP_FRACTION = 0.1

#: ``--smoke`` shrinks the dataset and the op counts so the whole suite
#: (tests included) runs in seconds; its numbers mean nothing.
SMOKE_KEYS = 4_000
SMOKE_OPS_DIVISOR = 25


@dataclass(frozen=True)
class Pinned:
    """One closed-loop workload: ``clients`` coroutine clients, each
    draining ``ops_per_client`` ops with ``depth`` ops in flight."""

    name: str
    index: str
    ycsb: str
    clients: int
    ops_per_client: int
    num_mns: int = 1
    #: 0 = the legacy single pool; >= 1 builds a ``ShardedIndex``.
    num_shards: int = 0
    depth: int = 1

    def sized(self, smoke: bool) -> "tuple[int, int]":
        """(num_keys, ops_per_client) at full or smoke size."""
        if smoke:
            return SMOKE_KEYS, max(40, self.ops_per_client // SMOKE_OPS_DIVISOR)
        return NUM_KEYS, self.ops_per_client

    def prepare(self, seed: int, smoke: bool = False):
        """Cluster + bulk-loaded index + workload context for one section."""
        num_keys, ops = self.sized(smoke)
        scale = Scale(name="perfbench", num_keys=num_keys,
                      ops_per_client=ops, client_sweep=[],
                      clients=self.clients, nic_scale=NIC_SCALE, seed=seed)
        config = scale.cluster_config(
            clients=self.clients, num_cns=NUM_CNS, num_mns=self.num_mns,
            num_shards=self.num_shards, sync_mode="optimistic",
            cache_mode="shared", seed=seed)
        overrides = (scale.chime_overrides()
                     if get_family(self.index).accepts_overrides else None)
        return prepare_point(self.index, self.ycsb, num_keys, ops, config,
                             theta=THETA, chime_overrides=overrides,
                             key_space=scale.key_space)


#: Why each exists is recorded in BENCHMARK.json (one line) and
#: README.md (with cache and working-set sizes).
WORKLOADS = {w.name: w for w in (
    Pinned("read-skew", index="chime", ycsb="C",
           clients=16, ops_per_client=3250),
    Pinned("write-scaleout", index="chime", ycsb="A",
           clients=24, ops_per_client=1560,
           num_mns=4, num_shards=4, depth=4),
    Pinned("scan-insert", index="chime", ycsb="E",
           clients=16, ops_per_client=845),
    Pinned("radix-coldcache", index="smart", ycsb="C",
           clients=16, ops_per_client=3900),
)}
