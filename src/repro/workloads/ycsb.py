"""YCSB core workloads (Cooper et al., SoCC '10), as the paper runs them.

Six mixes (§5.1): A (50/50 read/update), B (95/5), C (read-only),
D (95/5 read/insert with *latest* popularity), E (95/5 scan/insert,
scans of up to 100 items), and LOAD (100 % insert).  Keys are 8-byte
integers >= 1; the default popularity is scrambled Zipfian (0.99).

An :class:`OpStream` is a deterministic per-client iterator of
:class:`Op` values; the bench runner drains one stream per client.
Inserted keys are unique across clients (partitioned key ranges).
"""

from __future__ import annotations

import hashlib
import random
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.pairs import MappedColumn, Pairs
from repro.workloads.distributions import (
    Latest,
    ScrambledZipfian,
    Uniform,
    ZIPFIAN_CONSTANT,
)

#: Operation kinds.  READ_MODIFY_WRITE is YCSB F's composite op: the
#: client reads the current value and writes a new one back.
SEARCH, UPDATE, INSERT, SCAN = "search", "update", "insert", "scan"
READ_MODIFY_WRITE = "rmw"

#: Maximum items per YCSB-E scan.
SCAN_MAX = 100


class Op(NamedTuple):
    """One workload operation."""

    kind: str
    key: int
    value: int = 0
    scan_count: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix of one YCSB workload."""

    name: str
    read_fraction: float = 0.0
    update_fraction: float = 0.0
    insert_fraction: float = 0.0
    scan_fraction: float = 0.0
    rmw_fraction: float = 0.0
    latest: bool = False

    def __post_init__(self) -> None:
        total = (self.read_fraction + self.update_fraction
                 + self.insert_fraction + self.scan_fraction
                 + self.rmw_fraction)
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"workload {self.name} fractions sum to {total}")


YCSB_A = WorkloadSpec("A", read_fraction=0.5, update_fraction=0.5)
YCSB_B = WorkloadSpec("B", read_fraction=0.95, update_fraction=0.05)
YCSB_C = WorkloadSpec("C", read_fraction=1.0)
YCSB_D = WorkloadSpec("D", read_fraction=0.95, insert_fraction=0.05,
                      latest=True)
YCSB_E = WorkloadSpec("E", scan_fraction=0.95, insert_fraction=0.05)
#: YCSB F (not in the paper's evaluation, provided for completeness):
#: 50 % reads, 50 % read-modify-writes.
YCSB_F = WorkloadSpec("F", read_fraction=0.5, rmw_fraction=0.5)
YCSB_LOAD = WorkloadSpec("LOAD", insert_fraction=1.0)

WORKLOADS = {spec.name: spec
             for spec in (YCSB_A, YCSB_B, YCSB_C, YCSB_D, YCSB_E, YCSB_F,
                          YCSB_LOAD)}


def value_of(key: int) -> int:
    """The value :func:`dataset` loads under *key*."""
    return key * 31 % 1_000_003 + 1


@lru_cache(maxsize=8)
def _sparse_keys(num_keys: int, key_space: int, seed: int) -> array:
    """Memoized: a sweep samples the same sparse keys for every point."""
    rng = random.Random(seed)
    return array("q", sorted(rng.sample(range(1, key_space + 1), num_keys)))


def dataset(num_keys: int, key_space: int = 0, seed: int = 1) -> Pairs:
    """A sorted, unique (key, value) dataset as read-only columns.

    With ``key_space == 0`` keys are dense (1..n, a ``range``); otherwise
    they are sampled uniformly from [1, key_space] (an ``array('q')``) —
    sparse keys exercise radix path compression and learned-model
    segmentation realistically.  Values are :func:`value_of` the key.
    """
    if key_space and key_space < num_keys:
        raise WorkloadError("key_space smaller than num_keys")
    keys = (_sparse_keys(num_keys, key_space, seed) if key_space
            else range(1, num_keys + 1))
    return Pairs(keys, MappedColumn(value_of, keys))


#: Memoized op streams, keyed by everything an OpStream's output depends
#: on.  Only insert-free, non-*latest* mixes are cacheable: those streams
#: are pure functions of (spec, seed, theta, client, num_ops, keys),
#: whereas D/E/LOAD consume the context's shared insert counter and read
#: committed inserts, so their ops depend on run-time interleaving.  A
#: stream is kept as four columns — kind codes, keys, values, scan
#: counts — and its ops are built as it is iterated.
_STREAM_CACHE: "OrderedDict[Tuple, Tuple[bytes, array, array, array]]" = OrderedDict()
_STREAM_CACHE_LIMIT = 256
_KINDS = (SEARCH, UPDATE, INSERT, SCAN, READ_MODIFY_WRITE)


class WorkloadContext:
    """Shared state for one workload run across all clients.

    Tracks the loaded key population (for reads/updates) and partitions
    fresh insert keys among clients so concurrent inserts never collide.
    For YCSB D, the *latest* distribution reads over loaded + committed
    inserts.
    """

    def __init__(self, spec: WorkloadSpec, loaded_keys: Sequence[int],
                 seed: int = 1, theta: float = ZIPFIAN_CONSTANT,
                 insert_base: Optional[int] = None) -> None:
        self.spec = spec
        #: Read, never copied: a dataset's key column stays one column.
        self.loaded_keys = loaded_keys
        self.seed = seed
        self.theta = theta
        if insert_base is None:
            insert_base = (max(loaded_keys) + 1) if loaded_keys else 1
        self.insert_base = insert_base
        self._insert_counter = 0
        #: Keys inserted-and-acknowledged, in commit order (YCSB D reads).
        self.committed_inserts: List[int] = []
        #: How many inserts the run is expected to perform (set by the
        #: runner; used to pre-train ROLEX on future keys).
        self.expected_insert_budget = 0

    def next_insert_key(self) -> int:
        key = self.insert_base + self._insert_counter
        self._insert_counter += 1
        return key

    def commit_insert(self, key: int) -> None:
        self.committed_inserts.append(key)

    def insert_keys_upto(self, count: int) -> List[int]:
        """Pre-enumerate the next *count* insert keys (for pre-training
        ROLEX's model, mirroring the paper's methodology)."""
        return [self.insert_base + i for i in range(count)]

    @cached_property
    def _keys_digest(self) -> bytes:
        return hashlib.sha1(array("Q", self.loaded_keys)).digest()

    def stream(self, client_index: int, num_ops: int) -> Iterable[Op]:
        if self.spec.insert_fraction or self.spec.latest:
            return OpStream(self, client_index, num_ops)
        cache_key = (self.spec, self.seed, self.theta, client_index,
                     num_ops, self._keys_digest)
        columns = _STREAM_CACHE.get(cache_key)
        if columns is None:
            kinds, keys, values, scans = tuple(zip(
                *OpStream(self, client_index, num_ops))) or ((),) * 4
            columns = _STREAM_CACHE[cache_key] = (
                bytes(map(_KINDS.index, kinds)), array("Q", keys),
                array("Q", values), array("B", scans))
            while len(_STREAM_CACHE) > _STREAM_CACHE_LIMIT:
                _STREAM_CACHE.popitem(last=False)
        else:
            _STREAM_CACHE.move_to_end(cache_key)
        ops = zip(map(_KINDS.__getitem__, columns[0]), *columns[1:])
        return map(tuple.__new__, repeat(Op), ops)  # C speed: Op.__new__ is Python


class OpStream:
    """Deterministic per-client op iterator."""

    def __init__(self, context: WorkloadContext, client_index: int,
                 num_ops: int) -> None:
        self.context = context
        self.num_ops = num_ops
        self.rng = random.Random((context.seed, client_index, 77).__hash__()
                                 & 0x7FFFFFFF)
        spec = context.spec
        count = max(len(context.loaded_keys), 1)
        if spec.latest:
            self._popularity = Latest(count, self.rng, context.theta)
        elif context.theta > 0:
            self._popularity = ScrambledZipfian(count, self.rng,
                                                context.theta)
        else:
            self._popularity = Uniform(count, self.rng)

    def _pick_key(self) -> int:
        loaded = self.context.loaded_keys
        if self.context.spec.latest:
            committed = self.context.committed_inserts
            population = len(loaded) + len(committed)
            if population == 0:
                return 1
            self._popularity.grow(population)
            index = self._popularity.sample()
            return loaded[index] if index < len(loaded) else committed[index - len(loaded)]
        return loaded[self._popularity.sample() % len(loaded)] if loaded else 1

    def __iter__(self) -> Iterator[Op]:
        spec, rng = self.context.spec, self.rng
        # Cumulative cut points of the mix, summed in the order drawn.
        read = spec.read_fraction
        update = read + spec.update_fraction
        insert = update + spec.insert_fraction
        rmw = insert + spec.rmw_fraction
        for _ in range(self.num_ops):
            draw = rng.random()
            if draw < read:
                yield Op(SEARCH, self._pick_key())
            elif draw < update:
                yield Op(UPDATE, self._pick_key(), rng.randrange(1, 1 << 30))
            elif draw < insert:
                key = self.context.next_insert_key()
                yield Op(INSERT, key, key % 1_000_003 + 1)
            elif draw < rmw:
                yield Op(READ_MODIFY_WRITE, self._pick_key(), rng.randrange(1, 1 << 30))
            else:
                yield Op(SCAN, self._pick_key(), scan_count=rng.randint(1, SCAN_MAX))
