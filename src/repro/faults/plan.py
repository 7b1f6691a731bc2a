"""Declarative fault plans for the simulated fabric.

A :class:`FaultPlan` is a seeded, deterministic description of what goes
wrong during a run: verb losses, NIC latency spikes, MN unavailability
windows, and CN crashes pinned to a precise point inside an in-flight
operation (e.g. *after* the lock-acquiring CAS, *before* the unlocking
WRITE).  The plan itself is inert data — a
:class:`~repro.faults.injector.FaultInjector` interprets it against live
queue pairs (see :meth:`repro.cluster.cluster.Cluster.install_faults`).

Fault matching vocabulary:

* ``kinds`` — verb names as the queue pair reports them
  (:data:`VERB_KINDS`); None matches every verb.
* ``owner`` — a client identity string (``"cn0/c0"``, set by
  :class:`~repro.cluster.compute.ClientContext`); empty matches anyone.
* ``start`` / ``end`` — a half-open window in simulated seconds.

A spec that could never fire — a probability outside [0, 1], an unknown
verb kind, an empty window — raises :class:`~repro.errors.ConfigError`
when it is built; an owner or MN the cluster lacks is refused by
:meth:`~repro.cluster.cluster.Cluster.install_faults`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError

__all__ = ["LossFault", "DelayFault", "MnOutage", "CrashFault", "FaultPlan",
           "VERB_KINDS"]

#: The verb names :class:`~repro.rdma.verbs.RdmaQp` reports to its injector.
VERB_KINDS = frozenset({"read", "read_batch", "write", "write_batch", "cas",
                        "masked_cas", "faa", "rpc"})


def _kinds(kinds: Optional[Sequence[str]]) -> Optional[frozenset]:
    """*kinds* as a set of verb names (None matches every verb)."""
    if kinds is None:
        return None
    chosen = frozenset(kinds)
    if not chosen <= VERB_KINDS:
        raise ConfigError(
            f"unknown verb kind(s) {sorted(chosen - VERB_KINDS)}; "
            f"choose from {sorted(VERB_KINDS)}")
    return chosen


def _can_fire(start: float, end: float, probability: float = 1.0) -> None:
    """Refuse a window or a probability with which a spec never fires."""
    if not 0.0 <= probability <= 1.0:
        raise ConfigError(f"fault probability must be in [0, 1]: "
                          f"{probability}")
    if not start < end:
        raise ConfigError(f"empty fault window [{start}, {end})")


@dataclass(frozen=True)
class LossFault:
    """A verb vanishes on the wire: the client charges the verb timeout
    and sees :class:`~repro.errors.FaultInjectedError`; the memory effect
    never happens (at-most-once semantics)."""

    probability: float
    kinds: Optional[frozenset] = None
    owner: str = ""
    start: float = 0.0
    end: float = math.inf
    #: Cap on how many times this spec may fire (None = unlimited).
    max_count: Optional[int] = None


@dataclass(frozen=True)
class DelayFault:
    """A NIC latency spike: the verb completes normally but *delay*
    extra simulated seconds are charged first."""

    probability: float
    delay: float
    kinds: Optional[frozenset] = None
    owner: str = ""
    start: float = 0.0
    end: float = math.inf


@dataclass(frozen=True)
class MnOutage:
    """One memory node is unreachable for [start, end): every verb
    addressing it times out and fails."""

    mn_id: int
    start: float
    end: float


@dataclass(frozen=True)
class CrashFault:
    """Kill a compute node at a chosen verb of a chosen client.

    The *nth* verb issued by *owner* whose kind is in *kinds* triggers
    the crash, either ``before`` the verb takes any effect or ``after``
    it completed.  The whole CN dies: the triggering client parks
    forever mid-operation (no Python-level unwinding runs, exactly like
    a real crash — locks it holds stay held), and every other client of
    that CN parks at its next verb.
    """

    owner: str
    kinds: frozenset = frozenset({"write", "write_batch"})
    nth: int = 1
    when: str = "before"

    def __post_init__(self) -> None:
        if self.when not in ("before", "after"):
            raise ConfigError(f"crash 'when' must be before/after: {self.when}")
        if self.nth < 1:
            raise ConfigError(f"crash 'nth' is 1-based: {self.nth}")


class FaultPlan:
    """A seeded collection of fault specs with fluent builders.

    ``seed`` drives every probabilistic draw the injector makes, so the
    same plan against the same workload produces byte-identical runs.
    ``verb_timeout`` is the simulated time a client burns discovering a
    lost verb or an unreachable MN.
    """

    def __init__(self, seed: int = 0, verb_timeout: float = 10e-6) -> None:
        self.seed = seed
        self.verb_timeout = verb_timeout
        self.losses: List[LossFault] = []
        self.delays: List[DelayFault] = []
        self.outages: List[MnOutage] = []
        self.crashes: List[CrashFault] = []

    # -- fluent builders -----------------------------------------------------

    def drop(self, probability: float,
             kinds: Optional[Sequence[str]] = None, owner: str = "",
             start: float = 0.0, end: float = math.inf,
             max_count: Optional[int] = None) -> "FaultPlan":
        """Lose matching verbs with the given probability."""
        _can_fire(start, end, probability)
        self.losses.append(LossFault(probability, _kinds(kinds), owner,
                                     start, end, max_count))
        return self

    def spike(self, probability: float, delay: float,
              kinds: Optional[Sequence[str]] = None, owner: str = "",
              start: float = 0.0, end: float = math.inf) -> "FaultPlan":
        """Add a latency spike of *delay* seconds to matching verbs."""
        _can_fire(start, end, probability)
        self.delays.append(DelayFault(probability, delay, _kinds(kinds),
                                      owner, start, end))
        return self

    def outage(self, mn_id: int, start: float, end: float) -> "FaultPlan":
        """Make MN *mn_id* unreachable during [start, end)."""
        _can_fire(start, end)
        self.outages.append(MnOutage(mn_id, start, end))
        return self

    def crash(self, owner: str,
              kinds: Sequence[str] = ("write", "write_batch"),
              nth: int = 1, when: str = "before") -> "FaultPlan":
        """Crash *owner*'s CN at its nth matching verb."""
        self.crashes.append(CrashFault(owner, _kinds(kinds), nth, when))
        return self

    @property
    def empty(self) -> bool:
        return not (self.losses or self.delays or self.outages
                    or self.crashes)

    def to_dict(self) -> Dict:
        """The plan as JSON-stable data: kinds as sorted lists, an open
        window's end as None."""
        def spec(fault) -> Dict:
            return {name: sorted(value) if isinstance(value, frozenset)
                    else None if value == math.inf else value
                    for name, value in asdict(fault).items()}
        return {"seed": self.seed, "verb_timeout": self.verb_timeout,
                **{name: [spec(fault) for fault in getattr(self, name)]
                   for name in ("crashes", "losses", "delays", "outages")}}
