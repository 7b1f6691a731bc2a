"""Deterministic discrete-event simulation substrate.

This package replaces the paper's physical testbed clock: all latency,
bandwidth, and queueing behaviour of the disaggregated-memory fabric is
expressed as events on the :class:`~repro.sim.engine.Engine`.
"""

from repro.sim.engine import (
    AllOf,
    Engine,
    Event,
    Process,
    Timeline,
    Timeout,
    Wakeup,
)
from repro.sim.resources import Lock, QueueServer

__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "Lock",
    "Process",
    "QueueServer",
    "Timeline",
    "Timeout",
    "Wakeup",
]
