"""Compute nodes and client contexts.

A :class:`ComputeNode` owns the per-CN shared state: the index cache, the
RDWC combiner, the CN-local lock table, and (optionally) a modelled CN
NIC.  Each of its :class:`ClientContext` objects represents one client
core with its own queue pair and RNG stream; index client objects bind to
a context.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cluster.cache import IndexCache
from repro.cluster.rdwc import RdwcCombiner
from repro.config import ClusterConfig
from repro.memory.node import MemoryNode
from repro.rdma.nic import Nic
from repro.rdma.verbs import RdmaQp
from repro.sim.engine import Engine
from repro.sim.resources import Lock


class ComputeNode:
    """One node of the computing pool."""

    def __init__(self, engine: Engine, cn_id: int, config: ClusterConfig,
                 mns: Dict[int, MemoryNode]) -> None:
        self.engine = engine
        self.cn_id = cn_id
        self.config = config
        self.cache = IndexCache(config.cache_bytes)
        self.combiner = RdwcCombiner(engine, enabled=config.rdwc)
        self.nic: Optional[Nic] = (
            Nic(engine, config.cn_nic, name=f"cn{cn_id}")
            if config.cn_nic is not None else None)
        self._local_locks: Dict[int, Lock] = {}
        #: CN-local delegation table for pessimistic/adaptive sync:
        #: lock_addr -> :class:`repro.core.adaptive.DelegationEntry`.
        #: Releasing holders park a handoff token here when same-CN
        #: waiters are queued on the local lock table, so the waiter
        #: skips the remote FAA + polling.  Entries are created lazily
        #: by the lock path (kept untyped here to avoid a core import).
        self.delegation: Dict[int, object] = {}
        self.clients: List[ClientContext] = []
        for client_id in range(config.clients_per_cn):
            self.clients.append(ClientContext(self, client_id, mns))

    def local_lock(self, addr: int) -> Optional[Lock]:
        """The CN-local lock shadowing the remote lock at *addr*.

        Returns None when the local lock table is disabled; callers then
        go straight to the remote CAS (and may spin on it).
        """
        if not self.config.local_lock_table:
            return None
        lock = self._local_locks.get(addr)
        if lock is None:
            lock = Lock(self.engine, name=f"cn{self.cn_id}.lock@{addr:#x}")
            self._local_locks[addr] = lock
        return lock


class ClientContext:
    """One client core: a queue pair, an RNG stream, and its CN's state."""

    def __init__(self, cn: ComputeNode, client_id: int,
                 mns: Dict[int, MemoryNode]) -> None:
        self.cn = cn
        self.client_id = client_id
        self.engine = cn.engine
        self.qp = RdmaQp(cn.engine, mns, cn_nic=cn.nic,
                         torn_writes=cn.config.torn_writes)
        self.qp.owner = f"cn{cn.cn_id}/c{client_id}"
        self.qp.cn_id = cn.cn_id
        # Cluster-unique, non-zero 12-bit lease owner id (0 = unowned).
        self.lease_owner = (
            cn.cn_id * cn.config.clients_per_cn + client_id + 1) & 0xFFF
        self.rng = random.Random(
            (cn.config.seed, cn.cn_id, client_id).__hash__() & 0x7FFFFFFF)

    @property
    def cache(self) -> IndexCache:
        return self.cn.cache

    @property
    def combiner(self) -> RdwcCombiner:
        return self.cn.combiner

    @property
    def name(self) -> str:
        return f"cn{self.cn.cn_id}/c{self.client_id}"
