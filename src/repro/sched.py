"""The op scheduler: DEX-style coroutine lanes, the one client driver.

Real DM clients hide one-sided RDMA latency by keeping several
operations in flight per worker thread — DEX runs coroutine pools
inside each thread, and Outback's round-trip economy only matters
because every round trip stalls a coroutine, not a core.

:func:`launch_clients` is the only code that turns op streams into
client coroutines: every ``run_workload`` point and every chaos
campaign (:func:`repro.faults.chaos.run_chaos`) runs on it.  It takes
one op iterable per :class:`~repro.cluster.compute.ClientContext` and
runs up to ``depth`` *lanes* (op coroutines) per client.  All lanes of
one client pull from that client's stream and share its queue pair,
RNG, CN cache, combiner, and hotspot buffer; each lane gets its **own
index-client object**, so per-client mutable state held across yields
(held leases, chunk allocators, the obs op sequence number) is
automatically lane-private.  Lanes other than lane 0 wrap the context
in a :class:`LaneContext`, whose ``name`` carries the lane id —
observability spans from overlapping ops therefore group under
distinct per-coroutine ids.

A :class:`~repro.errors.ReproError` raised by an op stops its client:
the erring lane files ``(lane name, error)`` in
:attr:`ScheduledRun.errors` and no lane of that client pulls another
op, while every other client runs on.  The caller decides what an
error means — ``run_workload`` re-raises the first once the engine has
drained; chaos reports them all.

Determinism contract:

* ``depth=1`` is **event-sequence identical** to the historical serial
  ``client_loop``: one lane per client, the same generator yields, the
  same engine scheduling order (golden-verified by the perf-suite event
  fingerprints and ``tests/test_sched.py``).
* ``depth>1`` interleaves lanes deterministically on the engine's
  ``(time, priority, sequence)`` order: the same seed gives byte
  identical results on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import ReproError, WorkloadError
from repro.obs.bus import BUS
from repro.workloads.ycsb import INSERT, READ_MODIFY_WRITE, SCAN, SEARCH, UPDATE

__all__ = [
    "LaneContext",
    "ScheduledRun",
    "client_lane",
    "execute_op",
    "launch_clients",
]

#: What a lane shares with its client core; nothing rebinds these after launch.
_SHARED = ("cn", "client_id", "engine", "qp", "lease_owner", "rng", "cache", "combiner")


class LaneContext:
    """A per-coroutine view of one :class:`ClientContext`.

    Lanes share everything the underlying client core owns — the queue
    pair, the RNG stream, the CN's cache/combiner/lock table — bound
    once here, but carry a lane-tagged ``name`` so observability spans
    and error reports from overlapping operations stay distinguishable.
    Lane 0 uses the raw context, keeping ``depth=1`` byte-identical to
    the pre-scheduler runner.
    """

    __slots__ = _SHARED + ("lane", "name")

    def __init__(self, ctx, lane: int) -> None:
        for attr in _SHARED:
            setattr(self, attr, getattr(ctx, attr))
        self.lane = lane
        self.name = f"{ctx.name}~{lane}"

    def __repr__(self) -> str:
        return f"LaneContext({self.name})"


@dataclass
class ScheduledRun:
    """Everything :func:`launch_clients` wires up for one run."""

    #: Every lane's process, client-major then lane-minor.
    processes: List = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    #: Ops completed, per client name.
    completed: Dict[str, int] = field(default_factory=dict)
    #: ``(lane name, error)`` per op that raised a ReproError.
    errors: List[Tuple[str, ReproError]] = field(default_factory=list)

    @property
    def ops_completed(self) -> int:
        return sum(self.completed.values())

    @property
    def lanes_parked(self) -> int:
        """Lanes whose coroutine never finished: its CN crashed mid-op."""
        return sum(1 for process in self.processes if process.is_alive)


def execute_op(client, op, commit: Optional[Callable[[int], None]]
               ) -> Generator:
    """Run one YCSB op against an index client.

    The dispatch is the historical ``client_loop`` body, so ``depth=1``
    stays event-sequence identical to it; an insert's key goes to
    *commit*, if given, once the insert returns.
    """
    if op.kind == SEARCH:
        yield from client.search(op.key)
    elif op.kind == UPDATE:
        yield from client.update(op.key, op.value)
    elif op.kind == INSERT:
        yield from client.insert(op.key, op.value)
        if commit is not None:
            commit(op.key)
    elif op.kind == SCAN:
        yield from client.scan(op.key, op.scan_count)
    elif op.kind == READ_MODIFY_WRITE:
        current = yield from client.search(op.key)
        if current is not None:
            yield from client.update(op.key, op.value)
    else:
        raise WorkloadError(f"unknown op kind {op.kind}")


def client_lane(engine, client, name: str, ops, halted: List[bool],
                run: ScheduledRun, warmup: int,
                commit: Optional[Callable[[int], None]]) -> Generator:
    """One lane coroutine: pull the next op, run it, record latency.

    *ops* yields ``(op_index, op)`` and is shared by every lane of the
    client *name*, so ops run exactly once at any depth and warm-up
    exclusion stays per stream position.  Latency spans the whole
    closed-loop op (including queueing on shared NIC resources while
    sibling lanes are in flight) and is recorded at completion.  A
    :class:`~repro.errors.ReproError` sets the client's *halted* cell,
    so no lane of it pulls again, and is filed in ``run.errors``.

    Shard-routed clients expose ``outage_delay(key)`` — the seconds
    until the key's home MN leaves an injected outage window.  The lane
    parks for that long instead of burning retry budget against a dead
    MN, while lanes routed to healthy shards keep running.  The hook is
    pure Python and returns 0.0 when no injector is installed.
    """
    parker = getattr(client, "outage_delay", None)
    completed, latencies = run.completed, run.latencies
    while not halted[0]:
        try:
            op_index, op = next(ops)
        except StopIteration:
            return
        begin = engine.now
        if parker is not None:
            delay = parker(op.key)
            if delay > 0.0:
                yield engine.timeout(delay)
        if BUS.active:  # a recording files the op's records as warm-up or not
            BUS.emit("stream.op", engine.now, client=client.ctx.name,
                     warmup=op_index < warmup)
        try:
            yield from execute_op(client, op, commit)
        except ReproError as exc:
            halted[0] = True
            run.errors.append((client.ctx.name, exc))
            return
        completed[name] += 1
        if op_index >= warmup:
            latencies.append((engine.now - begin) * 1e6)


def launch_clients(cluster, index, streams: Iterable[Iterable], warmup: int,
                   depth: int = 1,
                   commit: Optional[Callable[[int], None]] = None
                   ) -> ScheduledRun:
    """Start ``depth`` lanes per client on the cluster engine.

    *streams* holds one op iterable per client, in
    ``cluster.clients()`` order; ops at stream positions below *warmup*
    record no latency, and *commit* is told each inserted key.  Lane 0
    of each client binds to the raw context; further lanes bind to
    :class:`LaneContext` views.  Processes are created client-major
    (client 0 lane 0, client 0 lane 1, ..., client 1 lane 0, ...) so
    the ``depth=1`` process creation order matches the historical
    serial runner exactly.
    """
    run = ScheduledRun()
    engine = cluster.engine
    for ctx, stream in zip(cluster.clients(), streams):
        run.completed[ctx.name] = 0
        ops = enumerate(stream)
        halted = [False]
        for lane in range(depth):
            lane_ctx = ctx if lane == 0 else LaneContext(ctx, lane)
            run.processes.append(engine.process(
                client_lane(engine, index.client(lane_ctx), ctx.name, ops,
                            halted, run, warmup, commit),
                name=f"lane-{lane_ctx.name}"))
    return run
