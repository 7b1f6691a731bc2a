"""Perfect hashing for Outback-style one-RTT routing.

Outback (PAPERS.md) keeps a compact perfect-hash table on the compute
side: for the bulk-loaded key set, every key maps to a distinct slot in
a value array of ``len(keys) / LOAD_FACTOR`` entries — minimal but for
a twentieth of spare slots — so a point lookup computes its target
address locally and reaches the value in a single READ.  This module
implements the classic hash-and-displace (CHD)
construction: keys are grouped into buckets, buckets are seeded largest
first, and each bucket searches for a displacement salt under which all
of its keys land in still-free slots.  Everything is deterministic in
``(keys, seed)``, so every CN builds an identical table and sweep
processes agree byte-for-byte.

Non-member keys still hash *somewhere*; the routed slot stores its key,
and readers verify it after the READ (Outback's own membership story).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import SimulationError

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Displacement salts tried per bucket.  A salt is stored in 16 bits
#: (:attr:`MinimalPerfectHash.routing_bytes`), which bounds it; at
#: :data:`LOAD_FACTOR` even the last single-key bucket misses all of
#: them with probability 0.95 ** 9999.
_MAX_DISPLACEMENT = 10_000

#: Keys per slot of the table.  Outback keeps spare slots so the tail
#: buckets — placed last, into whatever is still free — find a salt in
#: a handful of tries; at 1.0 a two-key tail bucket needs both keys to
#: land on the last free slots, burns every salt and fails the build.
LOAD_FACTOR = 0.95


def _mix(key: int, salt: int) -> int:
    """SplitMix64-style avalanche of *key* under *salt*."""
    x = (key + salt * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class MinimalPerfectHash:
    """A CHD perfect hash over a fixed integer key set.

    ``slot_of(key)`` is an injection from the construction keys into
    ``range(num_slots)``, ``num_slots`` being ``len(keys) /
    LOAD_FACTOR`` rounded up: minimal but for the spare slots.  Keys
    outside the set get an arbitrary (but deterministic) slot — callers
    must verify the key stored there.
    """

    def __init__(self, keys: Iterable[int], seed: int = 0,
                 keys_per_bucket: int = 4) -> None:
        keys = list(keys)
        if len(set(keys)) != len(keys):
            raise SimulationError("MPH construction requires unique keys")
        self.seed = seed
        self.num_slots = -int(-len(keys) // LOAD_FACTOR)
        self.num_buckets = max(1, len(keys) // max(1, keys_per_bucket))
        self._displacements: List[int] = [0] * self.num_buckets
        buckets: Dict[int, List[int]] = {}
        for key in keys:
            buckets.setdefault(self._bucket_of(key), []).append(key)
        taken = [False] * self.num_slots
        # Largest buckets place first, while free slots are plentiful.
        for bucket, members in sorted(
            buckets.items(), key=lambda kv: (-len(kv[1]), kv[0])
        ):
            for displacement in range(1, _MAX_DISPLACEMENT):
                slots: List[int] = []
                for key in members:
                    slot = _mix(key, self.seed + displacement) % self.num_slots
                    if taken[slot] or slot in slots:
                        break  # most salts fail on their first key
                    slots.append(slot)
                else:
                    for slot in slots:
                        taken[slot] = True
                    self._displacements[bucket] = displacement
                    break
            else:
                raise SimulationError(
                    f"MPH construction failed: no displacement places the "
                    f"{len(members)} keys of bucket {bucket} "
                    f"(degenerate key set?)")

    def _bucket_of(self, key: int) -> int:
        return _mix(key, self.seed) % self.num_buckets

    def slot_of(self, key: int) -> int:
        """The routed slot for *key* (verify the key after reading it)."""
        displacement = self._displacements[self._bucket_of(key)]
        return _mix(key, self.seed + displacement) % self.num_slots

    def __len__(self) -> int:
        return self.num_slots

    @property
    def routing_bytes(self) -> int:
        """CN-resident size: one 16-bit displacement per bucket."""
        return 2 * self.num_buckets

    def check_perfect(self, keys: Iterable[int]) -> None:
        """Assert that no two of *keys* share a slot (tests/invariants)."""
        seen = set()
        for key in keys:
            slot = self.slot_of(key)
            if slot in seen:
                raise SimulationError(f"MPH collision at slot {slot}")
            seen.add(slot)
