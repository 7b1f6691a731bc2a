"""An index proxy that records one span per op and checks every result.

``CheckedIndex(index, ...)`` stands where the index stands in
``run_workload``: its ``.client(ctx)`` wraps ``search`` / ``update`` /
``insert`` / ``scan``.  The wrappers only read the clock and compare
results — they yield nothing of their own — so a checked run must keep
the timed runs' ``sim_fingerprint``; that is how "what was checked is
what was timed" is enforced.

The model is deliberately the weak one the ISSUE states, because RDWC
read delegation and write combining make the indexes non-linearizable
on purpose: a search may return any value that was loaded, or written
to that key by an op that *started* before the search finished; it may
return ``None`` only for a key that is not known to be present (not
loaded, and no insert of it finished before the search started).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Dict, Generator, List, Optional

from repro.bench.metrics import percentile

#: Keep at most this many failure messages (the count is always exact).
MAX_MESSAGES = 20
READBACK_KEYS = 1000


class Model:
    """What the index may legally answer, and the spans of what it did."""

    def __init__(self, pairs, warmup: int, per_span_traffic: bool) -> None:
        self.loaded: Dict[int, int] = dict(pairs)
        self.loaded_keys: List[int] = sorted(self.loaded)
        #: key -> values written by an update/insert that has started.
        self.written: Dict[int, set] = defaultdict(set)
        #: key -> simulated time its insert finished.
        self.inserted_at: Dict[int, float] = {}
        self.warmup = warmup
        self.per_span_traffic = per_span_traffic
        self.spans: List[dict] = []
        self.failed_ops = 0
        self.messages: List[str] = []
        #: op index per client, shared by the client's lanes: lanes call
        #: into the proxy in the order they pull from the shared stream,
        #: so this is the op's position in the client's stream.
        self.next_index: Dict[str, int] = defaultdict(int)

    def legal(self, key: int, value) -> bool:
        return value == self.loaded.get(key) or value in self.written.get(key, ())

    def fail(self, message: str) -> None:
        self.failed_ops += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    # -- per-kind result rules ---------------------------------------------

    def check_search(self, key: int, result, started: float) -> Optional[str]:
        if result is None:
            inserted = self.inserted_at.get(key)
            if key in self.loaded or (inserted is not None and inserted <= started):
                return f"search({key}) lost a present key"
            return None
        if not self.legal(key, result):
            return f"search({key}) returned {result!r}, never loaded or written"
        return None

    def check_scan(self, start: int, count: int, result) -> Optional[str]:
        items = list(result)
        if len(items) > count:
            return f"scan({start},{count}) returned {len(items)} items"
        previous = start - 1
        loaded_seen = 0
        for key, value in items:
            if key <= previous:
                return f"scan({start},{count}) keys not ascending from the start key at {key}"
            previous = key
            if key in self.loaded:
                loaded_seen += 1
            elif key not in self.written:
                return f"scan({start},{count}) returned unknown key {key}"
            if not self.legal(key, value):
                return f"scan({start},{count}) returned illegal value for key {key}"
        keys = self.loaded_keys
        low = bisect_left(keys, start)
        # A full scan must hold every loaded key up to its last key; a
        # short one ran off the end, so it must hold every loaded key.
        high = bisect_right(keys, previous) if len(items) == count else len(keys)
        if high - low != loaded_seen:
            return (f"scan({start},{count}) dropped {high - low - loaded_seen} "
                    f"loaded key(s) inside its range")
        return None


class CheckedClient:
    """One lane's client: every op becomes a span and a verdict."""

    def __init__(self, client, ctx, model: Model) -> None:
        self._client = client
        self._engine = ctx.engine
        self._stats = ctx.qp.stats
        self._lane = ctx.name
        self._owner = ctx.name.split("~")[0]
        self._model = model

    def __getattr__(self, attr):
        # outage_delay and friends: anything the scheduler probes for.
        return getattr(self._client, attr)

    def _op(self, kind: str, key: int, call, verdict) -> Generator:
        model = self._model
        index = model.next_index[self._owner]
        model.next_index[self._owner] = index + 1
        started = self._engine.now
        before = self._stats.snapshot() if model.per_span_traffic else None
        try:
            result = yield from call
        except Exception as exc:
            model.fail(f"{kind}({key}) raised {type(exc).__name__}: {exc}")
            raise
        ended = self._engine.now
        span = {"name": kind, "id": f"{self._owner}#{index}",
                "parent": self._lane, "start": started, "end": ended,
                "warmup": index < model.warmup}
        if before is not None:
            delta = self._stats.delta(before)
            span["rtts"] = delta.rtts
            span["bytes"] = delta.bytes_read + delta.bytes_written
        model.spans.append(span)
        problem = verdict(result, started, ended)
        if problem is not None:
            model.fail(problem)
        return result

    def search(self, key: int) -> Generator:
        model = self._model
        return self._op("search", key, self._client.search(key),
                        lambda result, started, _ended:
                        model.check_search(key, result, started))

    def update(self, key: int, value: int) -> Generator:
        self._model.written[key].add(value)
        return self._op("update", key, self._client.update(key, value),
                        lambda *_: None)

    def insert(self, key: int, value: int) -> Generator:
        model = self._model
        model.written[key].add(value)

        def finished(_result, _started, ended):
            model.inserted_at.setdefault(key, ended)

        return self._op("insert", key, self._client.insert(key, value), finished)

    def scan(self, key: int, count: int) -> Generator:
        model = self._model
        return self._op("scan", key, self._client.scan(key, count),
                        lambda result, *_: model.check_scan(key, count, result))


class CheckedIndex:
    """Stands in for *index* in ``run_workload``; see the module docstring."""

    def __init__(self, index, model: Model) -> None:
        self._index = index
        self.model = model

    def __getattr__(self, attr):
        return getattr(self._index, attr)

    def client(self, ctx) -> CheckedClient:
        return CheckedClient(self._index.client(ctx), ctx, self.model)


def read_back(cluster, index, model: Model, seed: int) -> "tuple[int, int]":
    """Read keys back through a fresh client; returns (keys read,
    inserted keys it could not find).

    Up to half the sample is keys the run inserted, half of the rest
    loaded keys the run updated, the rest other loaded keys.  Every
    answer must be legal, and not ``None`` for a loaded key: anything
    else is a ``model.fail``.  Runs after the fingerprint was taken: it
    adds simulated events.

    A ``None`` for an *inserted* key is counted apart and does not fail
    the run.  It is a known chime defect, not a fault of the workload's
    own ops (none of them searches for an inserted key): sequential
    inserts split the rightmost leaf again and again, a CN whose cached
    parent predates the splits has no expected-sibling pointer for that
    leaf, and ``_search_leaf`` then chases one sibling only and answers
    "absent" (on some seeds of ``scan-insert``; README.md has the
    reproduction).  The count is reported as
    ``core.readback_insert_misses`` so that the fix shows as 0.
    """
    rng = random.Random(seed)
    inserted = sorted(model.inserted_at)
    updated = sorted(k for k in model.written if k in model.loaded)
    keys: List[int] = []
    for pool, share in ((inserted, 2), (updated, 2), (model.loaded_keys, 1)):
        room = (READBACK_KEYS - len(keys)) // share
        keys += rng.sample(pool, min(len(pool), room))
    client = index.client(next(iter(cluster.clients())))
    insert_misses = 0

    def reader():
        nonlocal insert_misses
        for key in keys:
            value = yield from client.search(key)
            if value is None and key not in model.loaded:
                insert_misses += 1
            elif value is None or not model.legal(key, value):
                model.fail(f"read-back of key {key} returned {value!r}")

    cluster.engine.process(reader(), name="perfbench-read-back")
    cluster.run()
    return len(keys), insert_misses


def latency_percentiles(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Post-warm-up simulated p50/p99 (µs) and count per op kind."""
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        if not span["warmup"]:
            by_kind[span["name"]].append((span["end"] - span["start"]) * 1e6)
    out = {}
    for kind, values in by_kind.items():
        values.sort()
        out[kind] = {"p50_us": percentile(values, 0.50),
                     "p99_us": percentile(values, 0.99), "n": len(values)}
    return out
