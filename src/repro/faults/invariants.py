"""Whole-tree invariant checking for chaos runs.

:func:`check_tree_invariants` walks a CHIME tree host-side (off the
simulated data path) after a run — possibly one that included injected
faults and CN crashes — and verifies the structural invariants the index
must uphold no matter what failed:

* no leaf lock bit left set, and no lease held (an unexpired foreign
  lease or an expired orphan both mean recovery failed);
* every hopscotch home bitmap agrees with the entries actually stored
  in its neighborhood;
* fence keys are ordered and chain exactly across the leaf level;
* every key the workload knows to be committed is readable.

Soft checks (stale piggybacked ``argmax``/vacancy metadata, which later
operations self-correct) are reported as warnings, not violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.node_layout import (
    LOCK_LEASE_OFFSET,
    LOCK_QUEUE_SPAN,
    LOCK_SERVING_OFFSET,
    LOCK_TICKET_OFFSET,
    sim_us,
    unpack_lease,
    unpack_lock_word,
)
from repro.core.nodes import LeafNodeView
from repro.core.sync import reconstruct_bitmaps
from repro.layout import MAX_KEY, StripedSpan, decode_key, decode_u64
from repro.memory import NULL_ADDR

__all__ = ["InvariantReport", "check_index_invariants",
           "check_kv_invariants", "check_tree_invariants"]

#: Lock-line offsets of the leaf fence keys (mirrors repro.core.chime).
_FENCE_LOW_OFF = 8
_FENCE_HIGH_OFF = 16


@dataclass
class InvariantReport:
    """Outcome of one whole-tree check."""

    violations: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    leaves: int = 0
    keys: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "warnings": list(self.warnings),
            "leaves": self.leaves,
            "keys": self.keys,
        }


def check_tree_invariants(index,
                          expected_keys: Optional[Iterable[int]] = None,
                          dead_cns: Iterable[int] = ()
                          ) -> InvariantReport:
    """Verify *index* (a :class:`~repro.core.chime.ChimeIndex`) host-side.

    *expected_keys* are keys known committed (bulk-loaded plus inserts
    whose operation returned before the run ended); each must be
    readable from some leaf.

    *dead_cns* are compute nodes crashed during the run: a leaf ticket
    queue with unserved tickets (``serving < next``) is then only a
    warning — a parked waiter's last FAA can land after every survivor
    left the queue, leaving nobody to drop it, which stalls no live
    client — otherwise it is a violation.
    """
    report = InvariantReport()
    layout = index.leaf_layout
    engine = index.cluster.engine
    now_us = sim_us(engine.now)
    leases_on = index.cluster.config.lock_leases
    any_dead = bool(set(dead_cns))
    addr = index.leftmost_leaf()
    if addr == NULL_ADDR:
        report.violations.append("tree has no leaves (no root?)")
        return report
    present: Dict[int, int] = {}
    seen = set()
    prev_fence_high: Optional[int] = None
    while addr != NULL_ADDR:
        if addr in seen:
            report.violations.append(
                f"leaf {addr:#x}: sibling chain cycles")
            break
        seen.add(addr)
        report.leaves += 1
        raw = index._host_read(addr, layout.raw_size)
        view = LeafNodeView(layout, StripedSpan(raw, 0))
        line = index._host_read(addr + layout.lock_offset, LOCK_QUEUE_SPAN)
        locked, argmax, vacancy = unpack_lock_word(decode_u64(line, 0))
        fence_low = decode_key(line, _FENCE_LOW_OFF)
        fence_high = decode_key(line, _FENCE_HIGH_OFF)
        owner, _epoch, expiry_us = unpack_lease(
            decode_u64(line, LOCK_LEASE_OFFSET))
        next_ticket = decode_u64(line, LOCK_TICKET_OFFSET)
        serving = decode_u64(line, LOCK_SERVING_OFFSET)
        if locked:
            report.violations.append(
                f"leaf {addr:#x}: lock bit still set after the run")
        if owner != 0:
            if now_us >= expiry_us:
                report.violations.append(
                    f"leaf {addr:#x}: orphaned lease (owner {owner}, "
                    f"expired {expiry_us}us <= now {now_us}us, never "
                    f"stolen)")
            elif leases_on:
                report.violations.append(
                    f"leaf {addr:#x}: lease still held by owner {owner} "
                    f"after the run")
        # Ticket-queue state (pessimistic/adaptive sync; both words are
        # zero on leaves the queue never touched).
        if serving > next_ticket:
            report.violations.append(
                f"leaf {addr:#x}: queue serving {serving} ran past the "
                f"dispenser {next_ticket} (over-drained)")
        elif serving < next_ticket:
            message = (
                f"leaf {addr:#x}: {next_ticket - serving} unserved queue "
                f"ticket(s) at rest (serving {serving}, next {next_ticket})")
            if any_dead:
                report.warnings.append(
                    message + " — attributable to crashed-CN waiters")
            else:
                report.violations.append(message)
        # Fence ordering + chaining.
        if fence_low >= fence_high:
            report.violations.append(
                f"leaf {addr:#x}: fences out of order "
                f"({fence_low} >= {fence_high})")
        if prev_fence_high is not None and fence_low != prev_fence_high:
            report.violations.append(
                f"leaf {addr:#x}: fence chain broken "
                f"({fence_low} != previous high {prev_fence_high})")
        prev_fence_high = fence_high
        # Entries within fences; collect for readability check.
        for key, value in view.pairs():
            report.keys += 1
            if not (fence_low <= key < fence_high):
                report.violations.append(
                    f"leaf {addr:#x}: key {key} outside fences "
                    f"[{fence_low}, {fence_high})")
            present[key] = value
        # Hopscotch bitmap / entry agreement, per home slot.
        truth = reconstruct_bitmaps(view, index.home_of)
        for home, stored in enumerate(view.bitmaps()):
            if stored != truth[home]:
                report.violations.append(
                    f"leaf {addr:#x}: home {home} bitmap {stored:#06x} "
                    f"disagrees with entries {truth[home]:#06x}")
        # Piggybacked metadata (self-correcting: warnings only).
        occupied = view.occupancy()
        true_vacancy = index.vacancy_map.compose(occupied)
        if vacancy & ~true_vacancy:
            report.warnings.append(
                f"leaf {addr:#x}: vacancy bitmap overclaims fullness "
                f"({vacancy:#x} vs {true_vacancy:#x})")
        if any(occupied) and argmax != view.argmax_key():
            report.warnings.append(
                f"leaf {addr:#x}: stale argmax {argmax} "
                f"(true {view.argmax_key()})")
        addr = view.replica_sibling(0)
    if prev_fence_high is not None and prev_fence_high != MAX_KEY:
        report.violations.append(
            f"rightmost leaf fence_high {prev_fence_high} != MAX_KEY")
    if expected_keys is not None:
        missing = sorted(k for k in expected_keys if k not in present)
        for key in missing[:10]:
            report.violations.append(f"committed key {key} is unreadable")
        if len(missing) > 10:
            report.violations.append(
                f"... and {len(missing) - 10} more committed keys missing")
    return report


def check_kv_invariants(index,
                        expected_keys: Optional[Iterable[int]] = None,
                        dead_cns: Iterable[int] = ()
                        ) -> InvariantReport:
    """Verify a hash-structured KV index (Outback / FlexKV) host-side.

    These families have no tree structure — no fences, locks, or
    hopscotch bitmaps to audit — so the check reduces to the data
    invariants any placement must uphold: the host-side item scan
    (``collect_items``) yields each key at most once, and every key the
    workload knows to be committed is present.  *dead_cns* is accepted
    for signature parity with the tree checker but unused: these
    families hold no remote locks a crashed CN could orphan.
    """
    del dead_cns
    report = InvariantReport()
    present: Dict[int, int] = {}
    for key, value in index.collect_items():
        report.keys += 1
        if key in present:
            report.violations.append(
                f"key {key} stored in more than one slot")
        present[key] = value
    if expected_keys is not None:
        missing = sorted(k for k in expected_keys if k not in present)
        for key in missing[:10]:
            report.violations.append(f"committed key {key} is unreadable")
        if len(missing) > 10:
            report.violations.append(
                f"... and {len(missing) - 10} more committed keys missing")
    return report


def check_index_invariants(index,
                           expected_keys: Optional[Iterable[int]] = None,
                           dead_cns: Iterable[int] = ()
                           ) -> InvariantReport:
    """Check a possibly-sharded index: dispatch per shard sub-tree.

    A :class:`~repro.core.sharded.ShardedIndex` is one CHIME sub-tree
    per key-range shard, each spanning the full fence domain
    ``[0, MAX_KEY)`` internally; every sub-tree is checked with
    :func:`check_tree_invariants` against the expected keys routed to
    its shard, and the per-shard findings are merged with a
    ``shard N:`` prefix.  A plain index passes straight through.

    Hash-structured KV families (no ``internal_layout``) route to
    :func:`check_kv_invariants` instead.
    """
    if (not hasattr(index, "internal_layout")
            and hasattr(index, "collect_items")):
        return check_kv_invariants(index, expected_keys=expected_keys,
                                   dead_cns=dead_cns)
    shards = getattr(index, "shards", None)
    if shards is None:
        return check_tree_invariants(index, expected_keys=expected_keys,
                                     dead_cns=dead_cns)
    smap = index.shard_map
    buckets: Dict[int, set] = {shard: set() for shard, _sub in shards()}
    for key in expected_keys or ():
        buckets[smap.shard_of(key)].add(key)
    merged = InvariantReport()
    for shard, sub in shards():
        report = check_tree_invariants(sub, expected_keys=buckets[shard],
                                       dead_cns=dead_cns)
        merged.violations.extend(
            f"shard {shard}: {v}" for v in report.violations)
        merged.warnings.extend(
            f"shard {shard}: {w}" for w in report.warnings)
        merged.leaves += report.leaves
        merged.keys += report.keys
    return merged
