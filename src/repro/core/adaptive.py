"""Contention-adaptive synchronization (CIDER-style).

CHIME's baseline synchronization is optimistic: writers spin on a masked
CAS of the per-node lock word and readers validate version nibbles.
Under high-skew write-heavy load that open spin collapses into CAS retry
storms — every failed CAS is a wasted round trip and the winners are
picked by the fabric, not by arrival order.

This module implements the pessimistic alternative and the policy that
decides, per leaf, which of the two to use:

* **Ticket queue** (see ``node_layout.LOCK_TICKET_OFFSET``): arrivals
  claim a FIFO position with one FAA on the next-ticket word, then poll
  the 48-byte lock line until the now-serving word reaches their ticket.
  The serving holder stamps the existing lease word, so the queue
  carries (owner, epoch, expiry) and the crash-recovery machinery —
  lease steal, leaf repair, dead-ticket drop — composes unchanged.

* **CN-local delegation** (:class:`DelegationEntry`): waiters behind the
  same compute node's local lock table piggyback on one remote
  acquisition.  A releasing holder with local waiters skips the remote
  serving-advance and passes a :class:`HandoffToken` in CN memory; the
  recipient revalidates with a single CAS instead of FAA + polling.

* **Per-leaf policy** (:class:`ContentionEstimator`): a decaying
  CAS-failure-rate estimator fed by the same observations that back the
  ``lock.cas_fail`` bus events flips an individual lock between the two
  modes at configurable up/down thresholds, with a minimum dwell time so
  it does not flap.

:class:`SyncState` ties these together per index.  When the configured
mode is ``optimistic`` the index keeps ``sync_state = None`` and every
hot path is byte-identical to the historical behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import KNOBS

__all__ = [
    "SYNC_OPTIMISTIC",
    "SYNC_PESSIMISTIC",
    "SYNC_ADAPTIVE",
    "SYNC_MODES",
    "AdaptivePolicy",
    "ContentionEstimator",
    "HandoffToken",
    "DelegationEntry",
    "SyncState",
]

SYNC_OPTIMISTIC = "optimistic"
SYNC_PESSIMISTIC = "pessimistic"
SYNC_ADAPTIVE = "adaptive"
SYNC_MODES = (SYNC_OPTIMISTIC, SYNC_PESSIMISTIC, SYNC_ADAPTIVE)


@dataclass(frozen=True)
class AdaptivePolicy:
    """Tuning knobs for the per-leaf optimistic<->pessimistic switch.

    The estimator keeps two EWMAs per lock address: ``fail_ewma``, the
    CAS failures observed per optimistic acquisition, and ``depth_ewma``,
    the queue depth (remote distance + same-CN waiters) observed per
    pessimistic acquisition.  A leaf goes pessimistic when its failure
    rate crosses ``up_threshold`` and falls back to optimistic when the
    observed queue depth decays below ``down_threshold``.  ``min_dwell``
    (simulated seconds) is hysteresis: a leaf that just switched holds
    its mode at least that long regardless of the estimators.
    """

    alpha: float = 0.25
    up_threshold: float = 1.0
    down_threshold: float = 0.5
    min_dwell: float = 100e-6


@dataclass
class _LeafState:
    """Per-lock-address contention record inside the estimator."""

    mode: str = SYNC_OPTIMISTIC
    fail_ewma: float = 0.0
    depth_ewma: float = 0.0
    last_switch: float = 0.0


class ContentionEstimator:
    """Decaying per-leaf contention estimator driving mode switches.

    Only instantiated for ``adaptive`` mode; the fixed modes need no
    per-leaf state.  All methods are plain function calls (no simulation
    yields, no RNG) so feeding the estimator from the lock hot paths
    cannot perturb event sequences.
    """

    def __init__(self, policy: AdaptivePolicy) -> None:
        self.policy = policy
        self._leaves: Dict[int, _LeafState] = {}
        self.switches_up = 0
        self.switches_down = 0

    def mode_of(self, lock_addr: int) -> str:
        state = self._leaves.get(lock_addr)
        return SYNC_OPTIMISTIC if state is None else state.mode

    def note_optimistic(self, lock_addr: int, failures: int, now: float) -> Optional[str]:
        """Record one optimistic acquisition that needed ``failures`` CAS retries.

        Returns the new mode if this observation flipped the leaf, else None.
        """
        pol = self.policy
        state = self._leaves.get(lock_addr)
        if state is None:
            if failures == 0:
                return None  # quiet leaf: skip allocating state for it
            state = self._leaves[lock_addr] = _LeafState(last_switch=now)
        state.fail_ewma += pol.alpha * (failures - state.fail_ewma)
        if (
            state.mode == SYNC_OPTIMISTIC
            and state.fail_ewma >= pol.up_threshold
            and now - state.last_switch >= pol.min_dwell
        ):
            state.mode = SYNC_PESSIMISTIC
            state.last_switch = now
            # Seed the depth estimate above the down threshold so the leaf
            # does not bounce straight back before observing a real queue.
            state.depth_ewma = max(state.fail_ewma, pol.down_threshold * 2.0)
            self.switches_up += 1
            return SYNC_PESSIMISTIC
        return None

    def note_queue(self, lock_addr: int, depth: int, now: float,
                   others_queued: bool = False) -> Optional[str]:
        """Record one pessimistic acquisition that saw ``depth`` waiters ahead.

        *others_queued* vetoes the down-switch: flipping a leaf back to
        optimistic while other clients still hold queue tickets strands
        them against a CAS storm with no FIFO priority (the queue head
        has no edge over fresh optimistic acquirers), so only an
        effectively-lone waiter may flip the leaf back.

        Returns the new mode if this observation flipped the leaf, else None.
        """
        pol = self.policy
        state = self._leaves.get(lock_addr)
        if state is None:
            return None
        state.depth_ewma += pol.alpha * (depth - state.depth_ewma)
        if (
            state.mode == SYNC_PESSIMISTIC
            and not others_queued
            and state.depth_ewma <= pol.down_threshold
            and now - state.last_switch >= pol.min_dwell
        ):
            state.mode = SYNC_OPTIMISTIC
            state.last_switch = now
            state.fail_ewma = 0.0
            self.switches_down += 1
            return SYNC_OPTIMISTIC
        return None


@dataclass
class HandoffToken:
    """A queue position passed between same-CN clients in CN memory.

    ``ticket`` is the position the releasing holder occupied (the remote
    now-serving word still points at it), ``word`` the metadata word the
    holder wrote at release, and ``lease`` the packed lease word it left
    behind (0 when leases are off).  The recipient revalidates remotely
    with one CAS — lease stamp or lock-bit — before trusting the token.
    """

    ticket: int
    word: int
    lease: int


#: Longest run of consecutive local handoffs before a releasing holder
#: must advance the remote serving word instead.  A handoff chain keeps
#: ``serving`` frozen while one CN's local backlog drains, so an
#: unbounded chain starves remote FIFO waiters (they see a stall and
#: eventually time out); the cap bounds any remote waiter's extra wait
#: to ``HANDOFF_CHAIN_LIMIT`` lock tenures.
HANDOFF_CHAIN_LIMIT = 4


@dataclass
class DelegationEntry:
    """CN-local delegation record for one lock address.

    ``waiting`` counts same-CN clients currently blocked on the local
    lock table for this address; a releasing holder that sees it nonzero
    parks a :class:`HandoffToken` here instead of advancing the remote
    serving word, and the woken waiter claims it with :meth:`take_token`.
    ``chain`` counts consecutive local handoffs since the lock last came
    through the remote queue; at :data:`HANDOFF_CHAIN_LIMIT` the holder
    releases remotely instead, restoring cross-CN FIFO fairness.
    """

    waiting: int = 0
    token: Optional[HandoffToken] = None
    handoffs: int = 0
    chain: int = 0

    def take_token(self) -> Optional[HandoffToken]:
        token, self.token = self.token, None
        if token is not None:
            self.handoffs += 1
            self.chain += 1
        return token


class SyncState:
    """Per-index synchronization mode state.

    Holds the configured mode, the adaptive estimator (when the mode is
    ``adaptive``), and the registry of in-flight queue tickets used by
    the chaos harness to report tickets stranded by crashed compute
    nodes.  Indexes running the default optimistic mode carry
    ``sync_state = None`` instead of an instance, which is what keeps
    the default hot paths event-sequence-identical.
    """

    def __init__(self, mode: str, policy: Optional[AdaptivePolicy] = None) -> None:
        self.mode = KNOBS["sync_mode"].check(mode, "SyncState mode")
        if self.mode == SYNC_OPTIMISTIC:
            raise ValueError("optimistic mode uses sync_state=None, not SyncState")
        self.policy = policy or AdaptivePolicy()
        self.estimator = (
            ContentionEstimator(self.policy) if self.mode == SYNC_ADAPTIVE else None
        )
        # (cn_id, client name, lock_addr) -> outstanding queue ticket.
        self.pending: Dict[Tuple[int, str, int], int] = {}
        self.wait_timeouts = 0

    def is_pessimistic(self, lock_addr: int) -> bool:
        if self.estimator is None:
            return True  # fixed pessimistic mode
        return self.estimator.mode_of(lock_addr) == SYNC_PESSIMISTIC

    # -- estimator feeding (no-ops outside adaptive mode) -----------------

    def note_optimistic(self, lock_addr: int, failures: int, now: float) -> Optional[str]:
        if self.estimator is None:
            return None
        return self.estimator.note_optimistic(lock_addr, failures, now)

    def note_queue(self, lock_addr: int, depth: int, now: float) -> Optional[str]:
        if self.estimator is None:
            return None
        # The caller has its own ticket registered; anyone else pending
        # on this address would be stranded by a down-switch.
        others = sum(1 for key in self.pending if key[2] == lock_addr)
        return self.estimator.note_queue(lock_addr, depth, now,
                                         others_queued=others > 1)

    # -- ticket registry (chaos / stranded-ticket reporting) ---------------

    def register(self, cn_id: int, owner: str, lock_addr: int, ticket: int) -> None:
        self.pending[(cn_id, owner, lock_addr)] = ticket

    def acquired(self, cn_id: int, owner: str, lock_addr: int) -> None:
        self.pending.pop((cn_id, owner, lock_addr), None)

    def abandon(self, cn_id: int, owner: str, lock_addr: int) -> None:
        self.pending.pop((cn_id, owner, lock_addr), None)
        self.wait_timeouts += 1

    def stranded(self, dead_cns: Tuple[int, ...] = ()) -> List[Dict[str, int]]:
        """Outstanding tickets, flagged with whether their CN is dead.

        After a chaos run every surviving client has either acquired or
        abandoned its ticket, so anything left here belongs to a parked
        lane — a crashed CN's waiter whose ticket the survivors must
        have dropped (lease mode) or that strands the queue (reported).
        """
        dead = set(dead_cns)
        return [
            {
                "cn": cn_id,
                "owner": owner,
                "lock_addr": lock_addr,
                "ticket": ticket,
                "cn_dead": cn_id in dead,
            }
            for (cn_id, owner, lock_addr), ticket in sorted(self.pending.items())
        ]
