"""The observability event bus.

A process-wide publish/subscribe channel for structured simulation
events.  Instrumentation points across the simulator, RDMA, cluster, and
index layers emit :class:`ObsEvent` records; subscribers (the metrics
collector, the span store, :class:`~repro.rdma.trace.QpTracer`) receive
them synchronously, in subscription order.

The bus is **off by default**: with no subscribers, :attr:`EventBus.active`
is False and every instrumentation site guards its emit with it, so the
steady-state cost of the subsystem is one attribute read per site.  This
is what keeps tier-1 benchmark numbers unaffected when nobody is
tracing.

Events are timestamped in *simulated* seconds.  Emitters that sit on the
data path pass ``engine.now`` explicitly; emitters without an engine
reference (the index cache, the sync checks) pass ``None`` and the bus
falls back to the clock installed by the last constructed
:class:`~repro.cluster.cluster.Cluster`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["ObsEvent", "Subscription", "EventBus", "BUS"]


class ObsEvent:
    """One structured occurrence: a kind, a simulated time, and fields."""

    __slots__ = ("kind", "time", "data")

    def __init__(self, kind: str, time: float, data: Dict) -> None:
        self.kind = kind
        self.time = time
        self.data = data

    def __repr__(self) -> str:  # debugging convenience
        fields = ", ".join(f"{k}={v!r}" for k, v in self.data.items())
        return f"ObsEvent({self.kind!r}, t={self.time:.9f}, {fields})"


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; detachable."""

    __slots__ = ("callback", "kinds", "_bus")

    def __init__(self, bus: "EventBus", callback: Callable[[ObsEvent], None],
                 kinds: Optional[frozenset]) -> None:
        self._bus = bus
        self.callback = callback
        self.kinds = kinds

    def unsubscribe(self) -> None:
        """Detach from the bus (idempotent)."""
        bus = self._bus
        if bus is not None:
            bus.unsubscribe(self)
            self._bus = None


class EventBus:
    """Synchronous pub/sub bus with per-subscriber kind filtering."""

    def __init__(self) -> None:
        self._subs: List[Subscription] = []
        self._clock: Optional[Callable[[], float]] = None
        #: True when at least one subscriber is attached (kept by
        #: :meth:`subscribe` / :meth:`unsubscribe`).  Instrumentation
        #: sites check it before building event payloads, so a quiet bus
        #: costs one attribute read per site.
        self.active = False

    # -- state ---------------------------------------------------------------

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Install the fallback clock used for ``time=None`` emits."""
        self._clock = clock

    # -- subscription --------------------------------------------------------

    def subscribe(self, callback: Callable[[ObsEvent], None],
                  kinds: Optional[Sequence[str]] = None) -> Subscription:
        """Attach *callback*; ``kinds`` limits delivery to those event
        kinds (None = everything).  Delivery order is subscription order."""
        sub = Subscription(self, callback,
                           frozenset(kinds) if kinds is not None else None)
        self._subs.append(sub)
        self.active = True
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach a subscription (idempotent)."""
        try:
            self._subs.remove(sub)
        except ValueError:
            pass
        self.active = bool(self._subs)

    # -- emission ------------------------------------------------------------

    def emit(self, kind: str, time: Optional[float] = None, /, **data) -> None:
        """Deliver an event to every matching subscriber, in order.

        ``kind`` and ``time`` are positional-only so payload fields may
        reuse those names (e.g. the ``kind`` of a verb event).

        No-op when nobody is subscribed.  Subscribers added or removed
        *during* delivery take effect from the next emit (the delivery
        list is snapshotted), so a subscriber may safely unsubscribe
        itself from inside its callback.
        """
        subs = self._subs
        if not subs:
            return
        if time is None:
            time = self._clock() if self._clock is not None else 0.0
        event = ObsEvent(kind, time, data)
        for sub in tuple(subs):
            if sub.kinds is None or kind in sub.kinds:
                sub.callback(event)


#: The process-wide default bus every instrumentation point emits to.
BUS = EventBus()
