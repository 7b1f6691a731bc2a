"""Hopscotch hashing (Herlihy, Shavit, Tzafrir — DISC '08).

Three layers live here:

* **pure planning functions** — given entry occupancy/home information,
  compute where a key lands and which hops must occur.  CHIME's leaf
  logic (``repro.core.leaf``) runs these over *fetched* hop ranges, so the
  planner must not assume it can see the whole table.
* :func:`place_run` — placement of a run of keys known to be absent,
  over flat lists: what bulk load, leaf splits and synonym leaves fill
  their tables with (no "already present?" probe, no per-table object,
  no Python call per key).
* :class:`HopscotchTable` — a complete local table used as a reference
  model in tests (:func:`place_run` is held to it) and by the Figure
  3d load-factor experiments.

Terminology (paper §2.3): a key's *home entry* is its hash slot; the
*neighborhood* is the ``H`` consecutive entries starting at the home; the
*hopscotch bitmap* in entry ``e`` records which of the ``H`` entries
starting at ``e`` hold keys whose home is ``e``; the *hop range* is the
smallest entry range touched by an insertion's hop sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import HashTableFullError


#: :func:`default_hash`'s multiplier (2**64 / golden ratio) and word mask.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def default_hash(key: int, capacity: int) -> int:
    """Fibonacci-style multiplicative hash onto [0, capacity)."""
    mixed = (key * _GOLDEN) & _MASK64
    mixed ^= mixed >> 29
    return mixed % capacity


def home_hash(capacity: int) -> Callable[[int], int]:
    """:func:`default_hash` onto [0, *capacity*) of the key alone (a
    keyword ``partial`` of it costs as much again as the hash)."""
    return lambda key: ((mixed := key * _GOLDEN & _MASK64)
                        ^ mixed >> 29) % capacity


def distance(home: int, pos: int, capacity: int) -> int:
    """Circular forward distance from *home* to *pos*."""
    return (pos - home) % capacity


@dataclass
class HopPlan:
    """The outcome of planning one hopscotch insertion.

    ``moves`` lists ``(src, dst)`` entry moves in execution order; after
    applying them, the new key goes to ``target``.  ``touched`` is the set
    of all entry positions the plan reads or writes (for hop-range span
    computation), including the home entries whose bitmaps change.
    """

    target: int
    moves: List[Tuple[int, int]] = field(default_factory=list)
    touched: List[int] = field(default_factory=list)


def find_first_empty(occupied: Callable[[int], bool], home: int,
                     capacity: int, limit: Optional[int] = None) -> Optional[int]:
    """Linear-probe from *home* for the first empty entry (circular)."""
    probes = capacity if limit is None else min(limit, capacity)
    for step in range(probes):
        pos = (home + step) % capacity
        if not occupied(pos):
            return pos
    return None


def plan_insert(home: int, empty: int, capacity: int, neighborhood: int,
                home_of: Callable[[int], Optional[int]]) -> Optional[HopPlan]:
    """Plan the hop sequence moving *empty* back into *home*'s neighborhood.

    *home_of(pos)* must return the home entry of the key at *pos* (or None
    for empty positions — only consulted for occupied ones).  Returns None
    when no feasible hop sequence exists (the caller splits the node or
    resizes the table).

    The planner always swaps with the **farthest** movable key (the one
    whose home is earliest), which is the property CHIME's reused-bitmap
    synchronization proof relies on (§4.1.2): the new key in a hop entry
    never shares a home with the key it displaced.
    """
    plan = HopPlan(target=empty, touched=[home, empty])
    guard = 0
    while distance(home, empty, capacity) >= neighborhood:
        guard += 1
        if guard > capacity:
            raise HashTableFullError("hop planning did not converge")
        moved = False
        # Scan candidates from farthest (H-1 back) to nearest.
        for back in range(neighborhood - 1, 0, -1):
            candidate = (empty - back) % capacity
            candidate_home = home_of(candidate)
            if candidate_home is None:
                continue
            if distance(candidate_home, empty, capacity) < neighborhood:
                plan.moves.append((candidate, empty))
                plan.touched.append(candidate)
                plan.touched.append(candidate_home)
                empty = candidate
                moved = True
                break
        if not moved:
            return None
    plan.target = empty
    return plan


def place_run(slots: List[int], homes: List[int], bitmaps: List[int],
              keys: Sequence[int], neighborhood: int, first: int = 1) -> int:
    """Place a run of fresh *keys*, in order, each exactly where
    :meth:`HopscotchTable.insert` would put it, up to the first key that
    does not fit; returns how many were placed.

    The table is three flat, position-ordered lists the caller owns:
    *slots* (0 = empty, else the non-zero token of the stored key — key
    ``i`` of the run gets ``first + i``), *homes* (the home entry of the
    key at each occupied position) and the hopscotch *bitmaps*.  A key's
    home is :func:`default_hash` onto ``len(slots)``, inlined into one
    comprehension over the run.  The key that does not fit — where the
    reference table raises :class:`~repro.errors.HashTableFullError` —
    leaves the table as it was.
    """
    capacity = len(slots)
    token = first - 1
    for home in [((mixed := key * _GOLDEN & _MASK64) ^ mixed >> 29) % capacity
                 for key in keys]:
        token += 1
        empty = home
        if slots[home]:  # linear probe, circular from home
            try:
                empty = slots.index(0, home)
            except ValueError:
                try:
                    empty = slots.index(0, 0, home)
                except ValueError:
                    return token - first
            if (empty - home) % capacity >= neighborhood:
                plan = plan_insert(home, empty, capacity, neighborhood,
                                   lambda pos: homes[pos] if slots[pos]
                                   else None)
                if plan is None:
                    return token - first
                for src, dst in plan.moves:
                    moved_home = homes[dst] = homes[src]
                    slots[dst] = slots[src]
                    slots[src] = 0
                    bitmaps[moved_home] ^= (
                        (1 << ((src - moved_home) % capacity))
                        | (1 << ((dst - moved_home) % capacity)))
                empty = plan.target
        slots[empty] = token
        homes[empty] = home
        bitmaps[home] |= 1 << ((empty - home) % capacity)
    return len(keys)


class HopscotchTable:
    """A local hopscotch hash table (reference model + experiments)."""

    def __init__(self, capacity: int, neighborhood: int = 8,
                 hash_fn: Optional[Callable[[int, int], int]] = None) -> None:
        if neighborhood < 1 or neighborhood > capacity:
            raise HashTableFullError(
                f"neighborhood {neighborhood} invalid for capacity {capacity}")
        self.capacity = capacity
        self.neighborhood = neighborhood
        self._hash = hash_fn or default_hash
        self._keys: List[Optional[int]] = [None] * capacity
        self._values: List[Optional[object]] = [None] * capacity
        self._bitmaps: List[int] = [0] * capacity
        self.size = 0

    # -- introspection -------------------------------------------------------

    @property
    def load_factor(self) -> float:
        return self.size / self.capacity

    def home_of_key(self, key: int) -> int:
        return self._hash(key, self.capacity)

    def home_of_pos(self, pos: int) -> Optional[int]:
        """Home entry of the key stored at *pos*, or None if empty."""
        key = self._keys[pos]
        if key is None:
            return None
        return self.home_of_key(key)

    def bitmap(self, entry: int) -> int:
        return self._bitmaps[entry]

    def items(self):
        for pos, key in enumerate(self._keys):
            if key is not None:
                yield key, self._values[pos]

    # -- operations ----------------------------------------------------------

    def _find(self, key: int) -> Tuple[int, Optional[int]]:
        """*key*'s home and the position its bitmap flags it at (None:
        absent)."""
        home = self.home_of_key(key)
        bitmap = self._bitmaps[home]
        for offset in range(self.neighborhood):
            if bitmap & (1 << offset):
                pos = (home + offset) % self.capacity
                if self._keys[pos] == key:
                    return home, pos
        return home, None

    def lookup(self, key: int):
        """Return the value for *key*, or raise KeyError."""
        _home, pos = self._find(key)
        if pos is None:
            raise KeyError(key)
        return self._values[pos]

    def __contains__(self, key: int) -> bool:
        try:
            self.lookup(key)
            return True
        except KeyError:
            return False

    def insert(self, key: int, value: object) -> HopPlan:
        """Insert or overwrite; returns the executed :class:`HopPlan`."""
        home, pos = self._find(key)
        if pos is not None:  # update in place
            self._values[pos] = value
            return HopPlan(target=pos, touched=[pos])
        empty = find_first_empty(lambda p: self._keys[p] is not None,
                                 home, self.capacity)
        if empty is None:
            raise HashTableFullError("no empty entry in table")
        plan = plan_insert(home, empty, self.capacity, self.neighborhood,
                           self.home_of_pos)
        if plan is None:
            raise HashTableFullError(
                f"no feasible hop sequence for key {key} (home {home})")
        for src, dst in plan.moves:
            self._apply_move(src, dst)
        self._place(plan.target, key, value, home)
        self.size += 1
        return plan

    def delete(self, key: int) -> None:
        """Remove *key* or raise KeyError."""
        home, pos = self._find(key)
        if pos is None:
            raise KeyError(key)
        self._keys[pos] = self._values[pos] = None
        self._bitmaps[home] &= ~(1 << distance(home, pos, self.capacity))
        self.size -= 1

    # -- internals -----------------------------------------------------------

    def _apply_move(self, src: int, dst: int) -> None:
        key = self._keys[src]
        home = self.home_of_key(key)
        self._keys[dst] = key
        self._values[dst] = self._values[src]
        self._keys[src] = None
        self._values[src] = None
        self._bitmaps[home] &= ~(1 << distance(home, src, self.capacity))
        self._bitmaps[home] |= 1 << distance(home, dst, self.capacity)

    def _place(self, pos: int, key: int, value: object, home: int) -> None:
        self._keys[pos] = key
        self._values[pos] = value
        self._bitmaps[home] |= 1 << distance(home, pos, self.capacity)

    def check_invariants(self) -> None:
        """Assert bitmap/occupancy consistency (used by property tests)."""
        for entry in range(self.capacity):
            for offset in range(self.neighborhood):
                pos = (entry + offset) % self.capacity
                flagged = bool(self._bitmaps[entry] & (1 << offset))
                holds = (self._keys[pos] is not None
                         and self.home_of_key(self._keys[pos]) == entry)
                assert flagged == holds, (
                    f"bitmap of entry {entry} bit {offset} is {flagged}, "
                    f"occupancy says {holds}")
