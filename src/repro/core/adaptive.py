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

* **Per-leaf policy** (:class:`SyncState`): decaying per-leaf
  estimates of CAS failures per optimistic acquisition and queue depth
  per pessimistic one flip an individual lock between the two modes at
  fixed up/down thresholds, with a minimum dwell time so it does not
  flap.

One :class:`SyncState` per cluster, in every mode, carries the policy
and the queue-ticket registry; the lock path that consults it is
:meth:`repro.core.family.FamilyClientBase._lock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import KNOBS
from repro.obs.bus import BUS

__all__ = [
    "SYNC_OPTIMISTIC",
    "SYNC_PESSIMISTIC",
    "SYNC_ADAPTIVE",
    "SYNC_MODES",
    "HandoffToken",
    "DelegationEntry",
    "SyncState",
]

SYNC_OPTIMISTIC = "optimistic"
SYNC_PESSIMISTIC = "pessimistic"
SYNC_ADAPTIVE = "adaptive"
SYNC_MODES = (SYNC_OPTIMISTIC, SYNC_PESSIMISTIC, SYNC_ADAPTIVE)


# The per-leaf optimistic<->pessimistic switch.  :class:`SyncState`
# keeps two EWMAs per lock address: ``fail_ewma``, the CAS failures
# observed per optimistic acquisition, and ``depth_ewma``, the queue
# depth (remote distance + same-CN waiters) observed per pessimistic
# acquisition.  A leaf goes pessimistic when its failure rate crosses
# UP_THRESHOLD and falls back to optimistic when the observed queue
# depth decays below DOWN_THRESHOLD.  MIN_DWELL (simulated seconds) is
# hysteresis: a leaf that just switched holds its mode at least that
# long regardless of the estimates.
ALPHA = 0.25
UP_THRESHOLD = 1.0
DOWN_THRESHOLD = 0.5
MIN_DWELL = 100e-6


@dataclass
class _LeafState:
    """Per-lock-address contention record of an adaptive :class:`SyncState`."""

    mode: str = SYNC_OPTIMISTIC
    fail_ewma: float = 0.0
    depth_ewma: float = 0.0
    last_switch: float = 0.0


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
    """A cluster's lock-line synchronization state, in every sync mode.

    Holds the configured mode; in ``adaptive`` mode, the per-leaf
    contention estimate that flips an individual lock address between
    the two modes (and emits ``sync.mode_switch`` when it does); and the
    registry of in-flight queue tickets the chaos harness reports
    tickets stranded by crashed compute nodes from.  Lock addresses are
    global, so every index of the cluster — every shard's sub-tree
    included — shares the one instance.  All methods are plain calls
    (no simulation yields, no RNG), so feeding the estimate from the
    lock paths cannot perturb event sequences.
    """

    def __init__(self, mode: str) -> None:
        self.mode = KNOBS["sync_mode"].check(mode, "SyncState mode")
        self._leaves: Dict[int, _LeafState] = {}
        # (cn_id, client name, lock_addr) -> outstanding queue ticket.
        self.pending: Dict[Tuple[int, str, int], int] = {}
        self.wait_timeouts = 0

    def is_pessimistic(self, lock_addr: int) -> bool:
        if self.mode != SYNC_ADAPTIVE:
            return self.mode == SYNC_PESSIMISTIC
        state = self._leaves.get(lock_addr)
        return state is not None and state.mode == SYNC_PESSIMISTIC

    # -- the per-leaf estimate (adaptive mode only) -------------------------

    def note_optimistic(self, lock_addr: int, failures: int, now: float) -> Optional[str]:
        """Record one optimistic acquisition that needed ``failures`` CAS retries.

        Returns the new mode if this observation flipped the leaf, else None.
        """
        if self.mode != SYNC_ADAPTIVE:
            return None
        state = self._leaves.get(lock_addr)
        if state is None:
            if failures == 0:
                return None  # quiet leaf: skip allocating state for it
            state = self._leaves[lock_addr] = _LeafState(last_switch=now)
        state.fail_ewma += ALPHA * (failures - state.fail_ewma)
        if (
            state.mode == SYNC_OPTIMISTIC
            and state.fail_ewma >= UP_THRESHOLD
            and now - state.last_switch >= MIN_DWELL
        ):
            # Seed the depth estimate above the down threshold so the leaf
            # does not bounce straight back before observing a real queue.
            state.depth_ewma = max(state.fail_ewma, DOWN_THRESHOLD * 2.0)
            return self._switch(lock_addr, state, SYNC_PESSIMISTIC, now)
        return None

    def note_queue(self, lock_addr: int, depth: int, now: float) -> Optional[str]:
        """Record one pessimistic acquisition that saw ``depth`` waiters ahead.

        A leaf never flips back to optimistic while clients other than
        the caller (whose own ticket is registered) hold queue tickets
        for it: they would face a CAS storm with no FIFO priority (the
        queue head has no edge over fresh optimistic acquirers), so only
        an effectively-lone waiter may flip the leaf back.

        Returns the new mode if this observation flipped the leaf, else None.
        """
        state = self._leaves.get(lock_addr)
        if state is None:
            return None
        state.depth_ewma += ALPHA * (depth - state.depth_ewma)
        if (
            state.mode == SYNC_PESSIMISTIC
            and state.depth_ewma <= DOWN_THRESHOLD
            and now - state.last_switch >= MIN_DWELL
            and sum(1 for key in self.pending if key[2] == lock_addr) <= 1
        ):
            state.fail_ewma = 0.0
            return self._switch(lock_addr, state, SYNC_OPTIMISTIC, now)
        return None

    @staticmethod
    def _switch(lock_addr: int, state: _LeafState, mode: str, now: float) -> str:
        state.mode = mode
        state.last_switch = now
        if BUS.active:
            direction = "up" if mode == SYNC_PESSIMISTIC else "down"
            BUS.emit("sync.mode_switch", now, addr=lock_addr, mode=mode, direction=direction)
        return mode

    # -- ticket registry (chaos / stranded-ticket reporting) ---------------

    def register(self, cn_id: int, owner: str, lock_addr: int, ticket: int) -> None:
        self.pending[(cn_id, owner, lock_addr)] = ticket

    def acquired(self, cn_id: int, owner: str, lock_addr: int) -> None:
        self.pending.pop((cn_id, owner, lock_addr), None)

    def abandon(self, cn_id: int, owner: str, lock_addr: int) -> None:
        self.pending.pop((cn_id, owner, lock_addr), None)
        self.wait_timeouts += 1

    def stranded(self, dead_cns: Sequence[int] = ()) -> List[Dict[str, int]]:
        """Outstanding tickets, flagged with whether their CN is dead.

        A CN crash parks its lanes at their next verb — lanes waiting in
        a remote ticket queue included — and survivors drain their
        tickets by CAS-advancing the serving word (``queue.drop``).
        After a chaos run every surviving client has either acquired or
        abandoned its ticket, so anything left here belongs to a parked
        lane — a crashed CN's waiter whose ticket the survivors must
        have dropped (lease mode) or that strands the queue (reported).
        Empty in optimistic mode, which takes no tickets.
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
