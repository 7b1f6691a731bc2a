"""Queueing resources for the simulation engine.

The central abstraction is :class:`QueueServer` — a work-conserving FIFO
server with a configurable number of service slots.  A request enters the
queue, waits for a free slot, occupies it for its service time, and its
completion event then fires.  This models NIC processing pipelines,
memory-node RPC handlers, and anything else that serializes work.

:class:`Lock` serializes host-side critical sections inside one CN.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event, Wakeup


class _Slot:
    """One service lane of a :class:`QueueServer`.

    Each slot owns a single reusable :class:`~repro.sim.engine.Wakeup`
    that drives *every* request served on the lane: when a completion
    fires and a request is waiting, the same wakeup is simply rescheduled
    at the next completion time.  A back-to-back chain of completions
    therefore costs zero allocations — no per-request Timeout, no
    callback list, no closure — while producing exactly the same queue
    entries (same times, same order) as the historical
    Timeout-per-request implementation.
    """

    __slots__ = ("server", "wakeup", "done", "service_time", "start_time")

    def __init__(self, server: "QueueServer") -> None:
        self.server = server
        self.wakeup = Wakeup(self.fire)
        self.done: Optional[Event] = None
        self.service_time = 0.0
        self.start_time = 0.0

    def fire(self) -> None:
        # Completion order mirrors the legacy ``_finish``: statistics,
        # then the done event, then (maybe) the next request — so the
        # done entry precedes the next completion's in the queue.
        server = self.server
        server.served += 1
        server.busy_time += self.service_time
        engine = server.engine
        now = engine._now
        self.done.succeed(now)
        if server._waiting:
            # Back-to-back chain: restart this same slot in place.
            service_time, self.done = server._waiting.popleft()
            self.service_time = service_time
            self.start_time = now
            when = now + service_time
            if when > now:
                engine._sequence = sequence = engine._sequence + 1
                engine._push((when, sequence, self.wakeup))
            else:  # zero service: done at this instant, in FIFO order
                engine._push_now(self.wakeup)
        else:
            self.done = None
            server._busy -= 1
            server._idle.append(self)


class QueueServer:
    """A FIFO server with *slots* parallel service lanes.

    Requests are served in arrival order.  Statistics (busy time, served
    count) are tracked so experiments can report utilization;
    ``busy_time`` accrues when a request *completes* (see
    :meth:`busy_time_until` for pro-rated in-flight accounting at a run
    cutoff).
    """

    def __init__(self, engine: Engine, slots: int = 1, name: str = "") -> None:
        if slots < 1:
            raise SimulationError(f"QueueServer needs >= 1 slot, got {slots}")
        self.engine = engine
        self.slots = slots
        self.name = name
        self._busy = 0
        self._waiting: Deque[Tuple[float, Event]] = deque()
        self._idle: List[_Slot] = []
        self._lanes: List[_Slot] = []
        self.served = 0
        self.busy_time = 0.0

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot right now."""
        return len(self._waiting)

    @property
    def in_service(self) -> int:
        """Number of requests currently occupying a slot."""
        return self._busy

    def request(self, service_time: float,
                done: Optional[Event] = None) -> Event:
        """Submit work needing *service_time* seconds; returns a completion event.

        The completion is ``done.succeed(now)`` on a fresh :class:`Event`,
        or on the caller's own *done* — a
        :class:`~repro.sim.engine.Timeline` passes itself, so the
        completion becomes one of its positions.
        """
        if service_time < 0:
            raise SimulationError(f"negative service time: {service_time}")
        if done is None:
            done = Event(self.engine)
        if self._busy < self.slots:
            self._busy += 1
            idle = self._idle
            if idle:
                slot = idle.pop()
            else:
                slot = _Slot(self)
                self._lanes.append(slot)
            engine = self.engine
            slot.done = done
            slot.service_time = service_time
            slot.start_time = now = engine._now
            when = now + service_time
            if when > now:
                engine._sequence = sequence = engine._sequence + 1
                engine._push((when, sequence, slot.wakeup))
            else:
                engine._push_now(slot.wakeup)
        else:
            self._waiting.append((service_time, done))
        return done

    def busy_time_until(self, now: float) -> float:
        """Completed busy time plus the in-flight portion as of *now*.

        A request still in service at a run cutoff contributes only the
        slice of its service window that has already elapsed, so
        utilization never over-reports for work cut off mid-service.
        """
        total = self.busy_time
        for slot in self._lanes:
            if slot.done is not None:
                elapsed = now - slot.start_time
                if elapsed > slot.service_time:
                    elapsed = slot.service_time
                if elapsed > 0.0:
                    total += elapsed
        return total


class Lock:
    """A simulated mutex for host-side coordination inside one CN.

    Index code uses *remote* CAS-based locks for cross-node exclusion; this
    class only serializes local critical sections (e.g. a shared local lock
    table as in Sherman).
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        """Return an event that fires once the caller holds the lock."""
        event = self.engine.event()
        if not self._locked:
            self._locked = True
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release the lock, handing it to the oldest waiter if present."""
        if not self._locked:
            raise SimulationError(f"lock {self.name!r} released while free")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self._locked = False
