"""The fault injector: interprets a :class:`~repro.faults.plan.FaultPlan`
against live queue pairs.

Every :class:`~repro.rdma.verbs.RdmaQp` verb consults its installed
injector before taking effect (and again after, for ``when="after"``
crash points).  Injection order per verb:

1. **Dead CN** — a client of a crashed CN parks forever (its generator
   is never resumed; no cleanup code runs, so remote locks it holds
   stay held — the hazard lease-based locks exist to recover from).
2. **Crash points** — count matching verbs per :class:`CrashFault`; on
   the nth, mark the CN dead and park.
3. **MN outage** — verbs addressing an unavailable MN charge the plan's
   verb timeout and raise :class:`~repro.errors.FaultInjectedError`.
4. **Loss** — seeded coin flip; a lost verb charges the verb timeout
   and raises, with *no* memory effect (at-most-once).
5. **Delay** — seeded coin flip; the verb is held up by the spike and
   then proceeds normally.

All randomness comes from one ``random.Random(plan.seed)`` consumed in
deterministic simulation order, so a (plan seed, workload seed) pair
fully determines the run.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, List, Optional, Set

from repro.errors import FaultInjectedError
from repro.faults.plan import FaultPlan
from repro.memory.region import addr_mn
from repro.obs.bus import BUS
from repro.sim.engine import Engine, Event

__all__ = ["FaultInjector"]


class FaultInjector:
    """Stateful interpreter of one :class:`FaultPlan` for one engine."""

    def __init__(self, engine: Engine, plan: FaultPlan) -> None:
        self.engine = engine
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: CN ids whose node has crashed; their clients park at the next verb.
        self.dead_cns: Set[int] = set()
        #: Parked coroutines per qp owner ("cn0/c0" -> count).  With
        #: pipeline depth > 1 a crashed client has several lanes in
        #: flight; each parks independently at its next verb, so the
        #: count per owner reaches the number of lanes that were still
        #: issuing verbs when the CN died.
        self.parked: Dict[str, int] = {}
        #: ``fault.*`` event counts (also folded into obs metrics).
        self.counters: Dict[str, int] = {}
        self._loss_counts = [0] * len(plan.losses)
        self._crash_counts = [0] * len(plan.crashes)
        self._crashed = [False] * len(plan.crashes)
        #: The events parked clients wait on (held: see :meth:`_park`).
        self._parks: List[Event] = []

    # -- hooks called by RdmaQp ----------------------------------------------

    def before_verb(self, qp, kind: str, addr: int,
                    mn_id: Optional[int] = None) -> Generator:
        yield from self._gate(qp, kind, addr, mn_id, "before")

    def after_verb(self, qp, kind: str, addr: int,
                   mn_id: Optional[int] = None) -> Generator:
        yield from self._gate(qp, kind, addr, mn_id, "after")

    # -- internals -----------------------------------------------------------

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    @staticmethod
    def _matches(fault, qp, kind: str, now: float) -> bool:
        if fault.kinds is not None and kind not in fault.kinds:
            return False
        if fault.owner and qp.owner != fault.owner:
            return False
        return fault.start <= now < fault.end

    def _gate(self, qp, kind: str, addr: int, mn_id: Optional[int],
              when: str) -> Generator:
        now = self.engine.now
        if qp.cn_id in self.dead_cns:
            yield from self._park(qp, kind)
        for index, crash in enumerate(self.plan.crashes):
            if self._crashed[index] or crash.when != when:
                continue
            if crash.owner != qp.owner or kind not in crash.kinds:
                continue
            self._crash_counts[index] += 1
            if self._crash_counts[index] >= crash.nth:
                self._crashed[index] = True
                self.dead_cns.add(qp.cn_id)
                self._count("fault.crash")
                if BUS.active:
                    BUS.emit("fault.crash", now, owner=qp.owner,
                             cn=qp.cn_id, verb=kind, when=when)
                yield from self._park(qp, kind)
        if when != "before":
            return
        target_mn = mn_id if mn_id is not None else addr_mn(addr)
        for outage in self.plan.outages:
            if outage.mn_id == target_mn and \
                    outage.start <= now < outage.end:
                self._count("fault.outage")
                if BUS.active:
                    BUS.emit("fault.outage", now, mn=target_mn, verb=kind,
                             owner=qp.owner)
                yield self.engine.timeout(self.plan.verb_timeout)
                raise FaultInjectedError(
                    f"MN {target_mn} unavailable: {kind} timed out")
        for index, loss in enumerate(self.plan.losses):
            if not self._matches(loss, qp, kind, now):
                continue
            if loss.max_count is not None and \
                    self._loss_counts[index] >= loss.max_count:
                continue
            if self.rng.random() < loss.probability:
                self._loss_counts[index] += 1
                self._count("fault.loss")
                if BUS.active:
                    BUS.emit("fault.loss", now, owner=qp.owner, verb=kind,
                             addr=addr)
                yield self.engine.timeout(self.plan.verb_timeout)
                raise FaultInjectedError(
                    f"{kind} @ {addr:#x} lost on the wire")
        for delay in self.plan.delays:
            if not self._matches(delay, qp, kind, now):
                continue
            if self.rng.random() < delay.probability:
                self._count("fault.delay")
                if BUS.active:
                    BUS.emit("fault.delay", now, owner=qp.owner, verb=kind,
                             spike=delay.delay)
                yield self.engine.timeout(delay.delay)

    def _park(self, qp, kind: str) -> Generator:
        """Freeze the calling client forever (its CN is dead).

        Yielding an event that never triggers parks the process without
        raising — deliberately: a crash must not run ``except``/
        ``finally`` cleanup that would release locks a real dead node
        could never release.  The injector holds the event: unheld, the
        process would be reclaimed at once, running its ``finally``
        blocks.  The simulation heap drains around parked processes, so
        the run still terminates.
        """
        self._count("fault.dead_cn_verb")
        self.parked[qp.owner] = self.parked.get(qp.owner, 0) + 1
        if BUS.active:
            BUS.emit("fault.dead_cn_verb", self.engine.now, owner=qp.owner,
                     verb=kind)
        self._parks.append(self.engine.event())
        yield self._parks[-1]
