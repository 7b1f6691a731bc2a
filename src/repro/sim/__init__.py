"""Deterministic discrete-event simulation substrate.

This package replaces the paper's physical testbed clock: all latency,
bandwidth, and queueing behaviour of the disaggregated-memory fabric is
expressed as events on the :class:`~repro.sim.engine.Engine`.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    CalendarQueue,
    Engine,
    Event,
    Interrupted,
    Process,
    Timeline,
    Timeout,
    Wakeup,
)
from repro.sim.resources import Lock, QueueServer, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarQueue",
    "Engine",
    "Event",
    "Interrupted",
    "Lock",
    "Process",
    "QueueServer",
    "Store",
    "Timeline",
    "Timeout",
    "Wakeup",
]
