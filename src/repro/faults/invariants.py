"""Whole-index invariant checking for chaos runs.

:func:`check_index_invariants` audits any family's index host-side (off
the simulated data path) after a run — possibly one that included
injected faults and CN crashes — against what it must uphold no matter
what failed:

* nothing claimed is left at rest: no lock bit set on any lock line the
  family's clients take (``index.lock_lines()``), no lease held (an
  unexpired foreign lease or an expired orphan both mean recovery
  failed), no queue ticket left unserved, and no sealed SMART slot
  (``index.sealed_slots()``);
* on a CHIME tree, on top: every hopscotch home bitmap agrees with the
  entries actually stored in its neighborhood, and fence keys are
  ordered and chain exactly across the leaf level.

Soft checks (stale piggybacked ``argmax``/vacancy metadata, which later
operations self-correct) are reported as warnings, not violations.
What the index holds — each key once, every committed key, the value a
history allows — is judged by :func:`repro.faults.history.check_history`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.node_layout import (
    LOCK_BIT,
    LOCK_LEASE_OFFSET,
    LOCK_QUEUE_SPAN,
    LOCK_SERVING_OFFSET,
    LOCK_TICKET_OFFSET,
    sim_us,
    unpack_lease,
    unpack_lock_word,
)
from repro.core.chime import LOCKLINE_FENCE_HIGH, LOCKLINE_FENCE_LOW, ChimeIndex
from repro.core.nodes import reconstruct_bitmaps
from repro.layout import MAX_KEY, decode_key, decode_u64
from repro.memory import NULL_ADDR, addr_mn

__all__ = ["InvariantReport", "check_index_invariants"]


@dataclass
class InvariantReport:
    """Outcome of one whole-index check."""

    violations: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: Leaves a CHIME tree's walk visited (0 for other families).
    leaves: int = 0
    keys: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {"ok": self.ok, **asdict(self)}


def check_index_invariants(index,
                           expected_keys: Optional[Iterable[int]] = None,
                           dead_cns: Iterable[int] = ()
                           ) -> InvariantReport:
    """Audit *index* — any family's, or a sharded one — host-side.

    *expected_keys* (perfbench's checked mode; the tests and chaos runs
    judge the final state with ``check_history`` instead) are keys
    known committed: each must be in ``collect_items()``, once.

    *dead_cns* are compute nodes crashed during the run: a ticket queue
    with unserved tickets (``serving < next``) is then only a warning —
    a parked waiter's last FAA can land after every survivor left the
    queue, leaving nobody to drop it, which stalls no live client —
    otherwise it is a violation.

    A :class:`~repro.core.sharded.ShardedIndex` is audited as one
    index: every shard's lock lines and seals, and its ``collect_items``
    (the fence walk is per unsharded tree).
    """
    report = InvariantReport()
    audit_lock_line = _lock_line_audit(index, report, dead_cns)
    for node, addr in index.lock_lines():
        audit_lock_line(node, index.cluster.mns[addr_mn(addr)].mem_read(
            addr, LOCK_QUEUE_SPAN))
    if isinstance(index, ChimeIndex):
        _walk_chime(index, report)
    for slot in index.sealed_slots():
        report.violations.append(f"{slot}: still sealed after the run")
    held = Counter(key for key, _value in index.collect_items())
    report.keys = sum(held.values())
    if expected_keys is not None:
        missing = sorted(set(expected_keys) - set(held))
        report.violations += [f"key {key} stored in more than one slot"
                              for key, count in held.items() for _ in range(1, count)]
        report.violations += [f"committed key {key} is unreadable" for key in missing[:10]]
        if len(missing) > 10:
            report.violations.append(f"... and {len(missing) - 10} more committed keys missing")
    return report


def _lock_line_audit(index, report: InvariantReport, dead_cns: Iterable[int]):
    """``audit(node, line)``: report what the 48-byte lock *line* of
    *node* still claims — lock bit, lease, unserved tickets."""
    now_us = sim_us(index.cluster.engine.now)
    leases_on = index.cluster.config.lock_leases
    any_dead = bool(set(dead_cns))

    def audit(node: str, line: bytes) -> None:
        owner, _epoch, expiry_us = unpack_lease(
            decode_u64(line, LOCK_LEASE_OFFSET))
        next_ticket = decode_u64(line, LOCK_TICKET_OFFSET)
        serving = decode_u64(line, LOCK_SERVING_OFFSET)
        if decode_u64(line, 0) & LOCK_BIT:
            report.violations.append(
                f"{node}: lock bit still set after the run")
        if owner != 0:
            if now_us >= expiry_us:
                report.violations.append(
                    f"{node}: orphaned lease (owner {owner}, "
                    f"expired {expiry_us}us <= now {now_us}us, never "
                    f"stolen)")
            elif leases_on:
                report.violations.append(
                    f"{node}: lease still held by owner {owner} "
                    f"after the run")
        # Ticket-queue state (pessimistic/adaptive sync; both words are
        # zero on lines the queue never touched).
        if serving > next_ticket:
            report.violations.append(
                f"{node}: queue serving {serving} ran past the "
                f"dispenser {next_ticket} (over-drained)")
        elif serving < next_ticket:
            message = (
                f"{node}: {next_ticket - serving} unserved queue "
                f"ticket(s) at rest (serving {serving}, next {next_ticket})")
            if any_dead:
                report.warnings.append(
                    message + " — attributable to crashed-CN waiters")
            else:
                report.violations.append(message)

    return audit


def _walk_chime(index: ChimeIndex, report: InvariantReport) -> None:
    """The walk along a CHIME tree's leaf chain: fence order and
    chaining to ``MAX_KEY``, every entry within its fences, every home
    bitmap equal to its reconstruction, and the piggybacked metadata
    (warnings)."""
    prev_fence_high = view = None
    for addr, view in index.leaf_chain():
        report.leaves += 1
        line = index._host_read(addr + index.leaf_layout.lock_offset,
                                LOCK_QUEUE_SPAN)
        _locked, argmax, vacancy = unpack_lock_word(decode_u64(line, 0))
        fence_low = decode_key(line, LOCKLINE_FENCE_LOW)
        fence_high = decode_key(line, LOCKLINE_FENCE_HIGH)
        if fence_low >= fence_high:
            report.violations.append(
                f"leaf {addr:#x}: fences out of order "
                f"({fence_low} >= {fence_high})")
        if prev_fence_high is not None and fence_low != prev_fence_high:
            report.violations.append(
                f"leaf {addr:#x}: fence chain broken "
                f"({fence_low} != previous high {prev_fence_high})")
        prev_fence_high = fence_high
        for key, _value in view.pairs():
            if not (fence_low <= key < fence_high):
                report.violations.append(
                    f"leaf {addr:#x}: key {key} outside fences "
                    f"[{fence_low}, {fence_high})")
        truth = reconstruct_bitmaps(view, index.home_of)
        for home, stored in enumerate(view.bitmaps()):
            if stored != truth[home]:
                report.violations.append(
                    f"leaf {addr:#x}: home {home} bitmap {stored:#06x} "
                    f"disagrees with entries {truth[home]:#06x}")
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
    if view is None:
        report.violations.append("tree has no leaves (no root?)")
    elif view.sibling != NULL_ADDR:  # the chain came back to a leaf
        report.violations.append(
            f"leaf {view.sibling:#x}: sibling chain cycles")
    if prev_fence_high is not None and prev_fence_high != MAX_KEY:
        report.violations.append(
            f"rightmost leaf fence_high {prev_fence_high} != MAX_KEY")
