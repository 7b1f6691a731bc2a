"""A small deterministic discrete-event simulation engine.

The engine drives *processes* — plain Python generators that ``yield``
:class:`Event` objects.  When a yielded event triggers, the process is
resumed with the event's value (or the event's exception is thrown into
it).  This is the same execution model as SimPy, reimplemented here so the
library has no runtime dependencies and so the scheduler semantics are
fully under our control (determinism matters: every experiment must be
exactly reproducible from its seed).

Scheduling is strictly ordered by ``(time, sequence)`` so two events at
the same timestamp trigger in the order they were scheduled.  Simulated
time is a float in **seconds**.

Two structures implement that order (see :class:`Engine`): a binary heap
of ``(time, sequence, event)`` entries holds the *future*, and whatever
is scheduled for the *current* instant skips the heap altogether — it
joins a FIFO *same-instant lane*, drained once the heap holds nothing
at ``now``.  Since most completions land in the lane, the heap stays
small (a median of 2–31 entries on the perfbench workloads), and at
that size C ``heapq`` beats any bucketing written in Python.

``tests/oracles.py``'s ``HeapQueue`` hands ``Engine(queue=...)`` a heap
with no lane, the reference the golden tests hold the lane to: a
byte-identical event sequence.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import (Any, Callable, Deque, Generator, Iterable, List, Optional,
                    Tuple)

from repro.errors import SimulationError

#: Type alias for the generator type processes are written as.
ProcessGenerator = Generator["Event", Any, Any]

#: One queue entry: ``(time, sequence, event)``.  Sequence numbers are
#: unique, so tuple comparison never reaches the (uncomparable) event.
Entry = Tuple[float, int, "Event"]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    makes it *triggered*, after which the engine runs its callbacks (which
    is how waiting processes are resumed).  Events may only trigger once.
    """

    __slots__ = ("engine", "callbacks", "_value", "_exception", "_triggered")

    #: Class flag: does reaching the event's scheduled time trigger it
    #: (Timeout) rather than an explicit succeed/fail?  Checked in the
    #: engine's hot loop instead of an ``isinstance`` call.
    _fires_by_time = False
    #: Class flag: a reusable wakeup (see :class:`Wakeup`) that the hot
    #: loop fires by calling ``fire()`` directly, with no callback list.
    _wakeup = False

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event succeeded with (None until triggered)."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the event failed with, if any."""
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self.engine._push_now(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, thrown into waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception")
        self._triggered = True
        self._exception = exception
        self.engine._push_now(self)
        return self


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ()

    _fires_by_time = True

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ + scheduling.  A non-negative delay can
        # never schedule in the past; one that rounds to *now* (zero
        # included) is a same-instant entry like any other.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = False
        now = engine._now
        when = now + delay
        if when > now:
            engine._sequence = sequence = engine._sequence + 1
            engine._push((when, sequence, self))
        else:
            engine._push_now(self)


class Wakeup:
    """A reusable scheduled callback — the engine's cheapest primitive.

    Unlike an :class:`Event`, a wakeup has no value, no callback list and
    no one-shot restriction: the hot loop simply calls :meth:`fire` when
    its time comes, and the owner may schedule it again (from inside
    ``fire`` or later).  :class:`~repro.sim.resources.QueueServer` uses
    one per busy service slot to drive a whole chain of back-to-back
    completions through a single object instead of allocating a Timeout
    (plus its callback list) per request.

    A wakeup must never be scheduled twice concurrently — the owner is
    responsible for rescheduling only after it fired.
    """

    __slots__ = ("fire",)

    _fires_by_time = True
    _wakeup = True

    def __init__(self, fire: Callable[[], None]) -> None:
        self.fire = fire


class Timeline(Event):
    """An event that walks several queue positions before it triggers.

    Where a coroutine would yield one event per step of a fixed
    itinerary, a timeline *is* each of those events in turn: the hot loop
    calls the subclass's ``fire()`` at every position, as for a
    :class:`Wakeup`, and ``fire`` decides which comes next — :meth:`_after`
    for a latency hop, itself as the ``done`` of a queue request, or
    ``engine._push_now(self)`` for one more same-instant position.  Every
    position is processed and counted like the event it stands for; only
    :meth:`_finish` walks the callback list (DESIGN.md §13).
    """

    __slots__ = ()

    _fires_by_time = True
    _wakeup = True

    def succeed(self, value: Any = None) -> "Timeline":
        """The completion of a request this timeline is the ``done`` of:
        take the same-instant position the completion event would."""
        self.engine._push_now(self)
        return self

    def _after(self, delay: float) -> None:
        """Take the position a ``Timeout(delay)`` would."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        engine = self.engine
        now = engine._now
        when = now + delay
        if when > now:
            engine._sequence = sequence = engine._sequence + 1
            engine._push((when, sequence, self))
        else:
            engine._push_now(self)

    def _finish(self, value: Any = None,
                exception: Optional[BaseException] = None) -> None:
        """Trigger at the current position and resume the waiters now."""
        self._triggered = True
        self._value = value
        self._exception = exception
        callbacks = self.callbacks
        self.callbacks = []
        for callback in callbacks:
            callback(self)


class AllOf(Event):
    """An event that triggers once every child event has succeeded.

    The value is a list of the child values in the order given.  If any
    child fails, this event fails with the same exception (first failure
    wins).
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            if child.triggered:
                self._on_child(child)
            else:
                child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The event value is the generator's return value.  An uncaught
    exception inside the generator — or a yielded value that is not an
    :class:`Event` — fails the process event; if nothing is waiting on
    the process, the exception propagates out of :meth:`Engine.run`
    (silent failures hide bugs).
    """

    __slots__ = ("_generator", "_ready", "name")

    def __init__(self, engine: "Engine", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(engine)
        self._generator = generator
        self._ready: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Start the process at the current simulated time.
        bootstrap = Event(engine)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(None)

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self._triggered

    # -- engine plumbing ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        if event._exception is not None:
            self._step(event._exception, is_exception=True)
        else:
            self._step(event._value, is_exception=False)

    def _resume_ready(self, _event: Event) -> None:
        # Deferred resume from an already-triggered yield target (the
        # target is stashed in ``_ready``); avoids allocating a closure
        # per step on this hot path.
        self._resume(self._ready)

    def _step(self, payload: Any, is_exception: bool) -> None:
        try:
            if is_exception:
                target = self._generator.throw(payload)
            else:
                target = self._generator.send(payload)
            if not isinstance(target, Event):
                raise SimulationError(f"process {self.name!r} yielded "
                                      f"{target!r}, expected an Event")
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberately broad
            self.fail(exc)
            if not self.callbacks:
                # Nobody is listening; surface the crash to Engine.run().
                self.engine._crash(exc)
            return
        if target._triggered:
            self._ready = target
            immediate = Event(self.engine)
            immediate.callbacks.append(self._resume_ready)
            immediate.succeed(None)
        else:
            target.callbacks.append(self._resume)


class Engine:
    """The event loop over a ``(time, seq)``-ordered queue.

    The queue is two structures: ``_heap``, a binary heap of
    ``(time, seq, event)`` entries for the future, and ``_lane``, a FIFO
    of the bare events scheduled for the current instant, drained only
    once the heap holds nothing at ``now``.  That is ``(time, seq)``
    order — heap entries for ``now`` were pushed earlier, so they carry
    the smaller sequence numbers — without a tuple, a sequence number or
    a heap operation per same-instant completion.

    *queue* is for tests only: an object whose ``_heap`` list the engine
    drains instead, with a ``_lane`` of None for the lane-less oracle
    (same-instant entries then go through the heap like any other).
    """

    def __init__(self, queue: Any = None) -> None:
        self._now = 0.0
        if queue is None:
            self._heap: List[Entry] = []
            self._lane: Optional[Deque[Event]] = deque()
        else:
            self._heap, self._lane = queue._heap, queue._lane
        self._push = partial(heappush, self._heap)  # schedule hot path
        # Scheduling for the current instant: an append to the lane, or
        # (the lane-less oracle) an ordinary ``(now, seq)`` entry.
        self._push_now: Callable[[Event], None] = (
            self._queue_callbacks if self._lane is None
            else self._lane.append)
        self._sequence = 0
        self._pending_crash: Optional[BaseException] = None
        #: Observability hook: when set, called as ``hook(now, processed,
        #: queue_len)`` every :attr:`trace_interval` processed events.  The
        #: quiet path costs one None-check per event pop.
        self.trace_hook: Optional[Callable[[float, int, int], None]] = None
        self.trace_interval = 1024
        self.events_processed = 0
        #: Debug hook: when set to a list, every processed event appends
        #: ``(time, type name)`` — the raw material of the golden
        #: event-sequence equality tests.  Costs one None-check per event.
        self.event_log: Optional[List[Tuple[float, str]]] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factory helpers ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers *delay* seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start running *generator* as a process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all *events* have succeeded."""
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _queue_callbacks(self, event: Event) -> None:
        # Callbacks run when the queue entry is popped.  Events triggered
        # explicitly (succeed/fail) are queued at the current time so their
        # callbacks run in deterministic scheduling order, not re-entrantly.
        self._sequence += 1
        self._push((self._now, self._sequence, event))

    def _queued(self) -> int:
        """Entries waiting in the heap and the lane (the trace hook's)."""
        return len(self._heap) + len(self._lane or ())

    def _crash(self, exc: BaseException) -> None:
        if self._pending_crash is None:
            self._pending_crash = exc

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches *until*.

        Returns the simulated time at which the run stopped.  Re-raises
        the first uncaught exception from any process nobody was waiting
        on.
        """
        bound = inf if until is None else until
        now = self._now
        if now > bound:
            return now  # everything pending is at or after now
        # The heap's pop is inlined into the loop: saves a Python method
        # call per processed event on the hot path.  The processed counter
        # runs in a local and is written back on every exit (the
        # ``finally``), so nothing observes a stale count after the loop;
        # hooks are rebound locally too — they are configured before a
        # run, never from inside one.
        heap = self._heap
        lane = self._lane
        processed = self.events_processed
        interval = self.trace_interval
        trace_hook = self.trace_hook
        event_log = self.event_log
        quiet = trace_hook is None and event_log is None
        try:
            while True:
                if self._pending_crash is not None:
                    exc, self._pending_crash = self._pending_crash, None
                    raise exc
                if lane and not (heap and heap[0][0] <= now):
                    # The heap holds nothing at this instant any more:
                    # same-instant entries go in the order scheduled.
                    event = lane.popleft()
                else:
                    if not heap:
                        break
                    entry = heap[0]
                    if entry[0] > bound:
                        break
                    heappop(heap)
                    event = entry[2]
                    self._now = now = entry[0]
                if event._fires_by_time:
                    if event._wakeup:
                        event.fire()
                        processed += 1
                        if quiet:
                            continue
                        if event_log is not None:
                            event_log.append((self._now,
                                              type(event).__name__))
                        if trace_hook is not None and \
                                processed % interval == 0:
                            self.events_processed = processed
                            trace_hook(self._now, processed, self._queued())
                        continue
                    if not event._triggered:
                        event._triggered = True  # fires by reaching its time
                callbacks = event.callbacks
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
                processed += 1
                if quiet:
                    continue
                if event_log is not None:
                    event_log.append((self._now, type(event).__name__))
                if trace_hook is not None and processed % interval == 0:
                    self.events_processed = processed
                    trace_hook(self._now, processed, self._queued())
        finally:
            self.events_processed = processed
        if until is not None and until > self._now:
            self._now = until
        if self._pending_crash is not None:
            exc, self._pending_crash = self._pending_crash, None
            raise exc
        return self._now
