"""The pipelined op scheduler: DEX-style coroutine depth per client.

Real DM clients hide one-sided RDMA latency by keeping several
operations in flight per worker thread — DEX runs coroutine pools
inside each thread, and Outback's round-trip economy only matters
because every round trip stalls a coroutine, not a core.  The simulator
historically drove each client through its op stream strictly serially,
so simulated throughput understated what a real testbed overlaps for
free.

This module runs up to ``depth`` *lanes* (op coroutines) per
:class:`~repro.cluster.compute.ClientContext`.  All lanes of one client
pull from one shared, deterministic op stream and share the client's
queue pair, RNG, CN cache, combiner, and hotspot buffer; each lane gets
its **own index-client object**, so per-client mutable state held
across yields (held leases, chunk allocators, the obs op sequence
number) is automatically lane-private.  Lanes other than lane 0 wrap
the context in a :class:`LaneContext`, whose ``name`` carries the lane
id — observability spans from overlapping ops therefore group under
distinct per-coroutine ids.

Determinism contract:

* ``depth=1`` is **event-sequence identical** to the historical serial
  ``client_loop``: one lane per client, the same generator yields, the
  same engine scheduling order (golden-verified by the perf-suite event
  fingerprints and ``tests/test_sched.py``).
* ``depth>1`` interleaves lanes deterministically on the engine's
  ``(time, priority, sequence)`` order: the same seed gives byte
  identical results on every run.

The depth is :attr:`~repro.config.ClusterConfig.pipeline_depth` unless
the caller of ``run_workload`` passes one explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.workloads.ycsb import (
    INSERT,
    READ_MODIFY_WRITE,
    SCAN,
    SEARCH,
    UPDATE,
    WorkloadContext,
)

__all__ = [
    "LaneContext",
    "LaneHandle",
    "ScheduledRun",
    "client_lane",
    "execute_op",
    "launch_clients",
    "shared_stream",
    "stranded_tickets",
]

class LaneContext:
    """A per-coroutine view of one :class:`ClientContext`.

    Lanes share everything the underlying client core owns — the queue
    pair, the RNG stream, the CN's cache/combiner/lock table — but
    expose a lane-tagged ``name`` so observability spans and error
    reports from overlapping operations stay distinguishable.  Lane 0
    uses the raw context (no proxy), keeping ``depth=1`` byte-identical
    to the pre-scheduler runner.
    """

    __slots__ = ("_ctx", "lane")

    def __init__(self, ctx, lane: int) -> None:
        self._ctx = ctx
        self.lane = lane

    @property
    def name(self) -> str:
        return f"{self._ctx.name}~{self.lane}"

    def __getattr__(self, attr):
        return getattr(self._ctx, attr)

    def __repr__(self) -> str:
        return f"LaneContext({self.name})"


@dataclass
class LaneHandle:
    """Bookkeeping for one launched lane coroutine."""

    name: str
    client_index: int
    lane: int
    process: object = field(repr=False, default=None)

    @property
    def finished(self) -> bool:
        """Whether the lane's generator ran to completion.

        A lane that is still alive after the engine's heap drained was
        parked forever (its CN crashed mid-operation) or cut off by a
        ``max_sim_seconds`` bound.
        """
        process = self.process
        return process is not None and not process.is_alive


@dataclass
class ScheduledRun:
    """Everything :func:`launch_clients` wires up for one workload run."""

    depth: int
    lanes: List[LaneHandle] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    #: Single-cell completed-op counter (a list so lane closures share it).
    completed: List[int] = field(default_factory=lambda: [0])

    @property
    def ops_completed(self) -> int:
        return self.completed[0]

    @property
    def lanes_parked(self) -> int:
        """Lanes whose coroutine never finished (crashed CN / time bound)."""
        return sum(1 for lane in self.lanes if not lane.finished)


def execute_op(client, op, context: WorkloadContext) -> Generator:
    """Run one YCSB op against an index client.

    The dispatch (and the commit-after-return rule for inserts) is
    exactly the historical ``client_loop`` body; it lives here so the
    serial and pipelined paths cannot drift apart.
    """
    if op.kind == SEARCH:
        yield from client.search(op.key)
    elif op.kind == UPDATE:
        yield from client.update(op.key, op.value)
    elif op.kind == INSERT:
        yield from client.insert(op.key, op.value)
        context.commit_insert(op.key)
    elif op.kind == SCAN:
        yield from client.scan(op.key, op.scan_count)
    elif op.kind == READ_MODIFY_WRITE:
        current = yield from client.search(op.key)
        if current is not None:
            yield from client.update(op.key, op.value)
    else:
        raise WorkloadError(f"unknown op kind {op.kind}")


def shared_stream(stream) -> Iterator[Tuple[int, object]]:
    """One client's op stream as a shared ``(op_index, op)`` iterator.

    Every lane of the client pulls from the same iterator, so ops are
    dispensed exactly once and ``op_index`` preserves the stream
    position regardless of which lane runs an op (warmup exclusion
    stays per-op, not per-lane).
    """
    return iter(enumerate(iter(stream)))


def client_lane(engine, client, ops: Iterator[Tuple[int, object]],
                context: WorkloadContext, warmup: int,
                latencies: List[float], completed: List[int]) -> Generator:
    """One lane coroutine: pull the next op, run it, record latency.

    Latency spans the whole closed-loop op (including queueing on
    shared NIC resources while sibling lanes are in flight) and is
    recorded per-op at completion; ops whose stream position falls
    inside the warmup window are excluded, as in the serial runner.

    Shard-routed clients expose ``outage_delay(key)`` — the seconds
    until the key's home MN leaves an injected outage window.  The lane
    parks for that long instead of burning retry budget against a dead
    MN, while lanes routed to healthy shards keep running.  Legacy
    clients have no such hook and the loop is unchanged (event-sequence
    identity preserved: the hook is pure Python and returns 0.0 when no
    injector is installed).
    """
    parker = getattr(client, "outage_delay", None)
    while True:
        try:
            op_index, op = next(ops)
        except StopIteration:
            return
        begin = engine.now
        if parker is not None:
            delay = parker(op.key)
            if delay > 0.0:
                yield engine.timeout(delay)
        yield from execute_op(client, op, context)
        completed[0] += 1
        if op_index >= warmup:
            latencies.append((engine.now - begin) * 1e6)


def launch_clients(cluster, index, context: WorkloadContext,
                   ops_per_client: int, warmup: int,
                   depth: int = 1) -> ScheduledRun:
    """Start ``depth`` lanes per client context on the cluster engine.

    Lane 0 of each client binds to the raw context; further lanes bind
    to :class:`LaneContext` views.  Processes are created client-major
    (client 0 lane 0, client 0 lane 1, ..., client 1 lane 0, ...) so
    the ``depth=1`` process creation order matches the historical
    serial runner exactly.  Every lane records into the shared
    ``run.latencies`` / ``run.completed`` pair.
    """
    run = ScheduledRun(depth=depth)
    engine = cluster.engine
    for client_index, ctx in enumerate(cluster.clients()):
        ops = shared_stream(context.stream(client_index, ops_per_client))
        for lane in range(depth):
            lane_ctx = ctx if lane == 0 else LaneContext(ctx, lane)
            client = index.client(lane_ctx)
            handle = LaneHandle(name=lane_ctx.name,
                                client_index=client_index, lane=lane)
            handle.process = engine.process(
                client_lane(engine, client, ops, context, warmup,
                            run.latencies, run.completed),
                name=f"lane-{lane_ctx.name}")
            run.lanes.append(handle)
    if cluster.config.rebalance_shards and hasattr(index, "rebalancer"):
        # Hot-shard rebalancer rides alongside the workload; it stops
        # once every lane finished so the engine heap can drain.
        lanes = run.lanes
        engine.process(
            index.rebalancer(lambda: all(l.finished for l in lanes)),
            name="shard-rebalancer")
    return run


def stranded_tickets(index, dead_cns=()) -> List[Dict[str, int]]:
    """Queue tickets still outstanding after a run (chaos diagnostics).

    With pessimistic/adaptive sync, a CN crash parks its lanes at their
    next verb — including lanes waiting in a remote ticket queue.  Their
    tickets stay claimed on the MN; survivors drain them by CAS-advancing
    the serving word past every dead ticket (``queue.drop`` events), and
    this helper reports what the parked lanes left behind so the chaos
    harness can assert the drain happened.  Each entry carries the lane's
    CN, owner name, lock address, ticket number, and whether its CN is in
    *dead_cns*.  Empty for optimistic-mode indexes (no ``sync_state``).
    """
    state = getattr(index, "sync_state", None)
    if state is None:
        return []
    return state.stranded(tuple(dead_cns))
