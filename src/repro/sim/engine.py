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

One scheduling structure implements that order: :class:`CalendarQueue`,
a bucketed calendar queue.  Near-future events (the short-horizon NIC
timeouts that dominate RDMA traffic) land in per-tick buckets with O(1)
amortized insert; only the current tick is kept heap-ordered.  Bucket
width resizes automatically from the observed event density, and sparse
far-future events simply become singleton buckets — the structure
degenerates gracefully into a plain heap of tick indexes, which is its
far-future fallback.  Whatever is scheduled for the *current* instant
skips the heap altogether: it joins the queue's FIFO *same-instant lane*
(see :class:`CalendarQueue`).

The original single binary heap is not in this package: it is
``tests/oracles.py``'s ``HeapQueue``, the reference the golden tests
hand to ``Engine(queue=...)`` to assert the calendar queue produces a
byte-identical event sequence.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
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
    #: Class default for the tombstone flag; only :class:`Timeout`
    #: instances ever carry a per-instance value.
    _cancelled = False

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

    __slots__ = ("_cancelled",)

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
        self._cancelled = False
        now = engine._now
        when = now + delay
        if when > now:
            engine._sequence = sequence = engine._sequence + 1
            engine._push((when, sequence, self))
        else:
            engine._push_now(self)

    def cancel(self) -> None:
        """Tombstone the timer: it will never fire.

        The queue entry stays where it is and is silently discarded when
        its time comes (it does not count as a processed event).  Used
        for abandoned retry/backoff timers — e.g. a timer a process was
        sleeping on when it got interrupted — so dead timers stop
        costing callback work.  Cancelling an already-triggered timeout
        is a no-op.
        """
        if not self._triggered:
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` tombstoned this timer."""
        return self._cancelled


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
    _cancelled = False

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

    __slots__ = ("_cancelled",)

    _fires_by_time = True
    _wakeup = True

    def __init__(self, engine: "Engine") -> None:
        Event.__init__(self, engine)
        self._cancelled = False

    def succeed(self, value: Any = None) -> "Timeline":
        """The completion of a request this timeline is the ``done`` of:
        take the same-instant position the completion event would."""
        self.engine._push_now(self)
        return self

    def cancel(self) -> None:
        """Tombstone, as :meth:`Timeout.cancel`: positions still to come
        are discarded uncounted (subclasses may keep some)."""
        self._cancelled = True

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


class AnyOf(Event):
    """An event that triggers as soon as one child event triggers.

    The value is a ``(index, value)`` tuple identifying which child fired
    first.  A failing child fails this event.  Once decided, the losing
    children are detached, and losing :class:`Timeout` children nobody
    else is waiting on are cancelled — the classic source of dead timers
    bloating the queue in timeout-vs-completion races.
    """

    __slots__ = ("_children", "_child_callbacks")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._children = list(events)
        self._child_callbacks: List[Optional[Callable[[Event], None]]] = []
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            on_child = self._make_on_child(index)
            self._child_callbacks.append(on_child)
            if child.triggered:
                on_child(child)
            else:
                child.callbacks.append(on_child)

    def _make_on_child(self, index: int) -> Callable[[Event], None]:
        def on_child(child: Event) -> None:
            if self._triggered:
                return
            if child.exception is not None:
                self.fail(child.exception)
            else:
                self.succeed((index, child.value))
            self._detach_losers()

        return on_child

    def _detach_losers(self) -> None:
        for other, callback in zip(self._children, self._child_callbacks):
            if other._triggered or callback is None:
                continue
            try:
                other.callbacks.remove(callback)
            except ValueError:
                pass
            if not other.callbacks and other._fires_by_time and \
                    not other._wakeup:
                other.cancel()  # type: ignore[attr-defined]
        self._child_callbacks = []


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The event value is the generator's return value.  An uncaught
    exception inside the generator fails the process event; if nothing is
    waiting on the process, the exception propagates out of
    :meth:`Engine.run` (silent failures hide bugs).
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, engine: "Engine", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(engine)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Start the process at the current simulated time.
        bootstrap = Event(engine)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(None)

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self._triggered

    def interrupt(self, cause: Optional[Exception] = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        if self._triggered:
            return
        exc = Interrupted(cause)
        waiting = self._waiting_on
        if waiting is not None:
            if not waiting.triggered:
                # Detach from the event we were waiting on and resume with
                # the interrupt instead.
                try:
                    waiting.callbacks.remove(self._resume)
                except ValueError:
                    pass
                if not waiting.callbacks and waiting._fires_by_time:
                    # An abandoned timer nobody else waits on: tombstone
                    # it so the queue drops it instead of firing it (a
                    # timeline stops at its next resume position).
                    waiting.cancel()  # type: ignore[attr-defined]
            # Clear the stale target so a late ``_resume_waiting``
            # callback (scheduled before the interrupt for an
            # already-triggered yield target) can never resume this
            # process from it.
            self._waiting_on = None
        kicker = Event(self.engine)
        kicker.callbacks.append(lambda _ev: self._step(exc, is_exception=True))
        kicker.succeed(None)

    # -- engine plumbing ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._exception is not None:
            self._step(event._exception, is_exception=True)
        else:
            self._step(event._value, is_exception=False)

    def _resume_waiting(self, _event: Event) -> None:
        # Deferred resume from an already-triggered yield target (the
        # target is stashed in ``_waiting_on``); avoids allocating a
        # closure per step on this hot path.
        target = self._waiting_on
        if target is not None:
            self._resume(target)

    def _step(self, payload: Any, is_exception: bool) -> None:
        if self._triggered:
            return
        try:
            if is_exception:
                target = self._generator.throw(payload)
            else:
                target = self._generator.send(payload)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberately broad
            self.fail(exc)
            if not self.callbacks:
                # Nobody is listening; surface the crash to Engine.run().
                self.engine._crash(exc)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        self._waiting_on = target
        if target._triggered:
            immediate = Event(self.engine)
            immediate.callbacks.append(self._resume_waiting)
            immediate.succeed(None)
        else:
            target.callbacks.append(self._resume)


class Interrupted(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Optional[Exception]) -> None:
        super().__init__(cause)
        self.cause = cause


class CalendarQueue:
    """A bucketed calendar queue ordered by ``(time, seq)``.

    Time is divided into *ticks* of ``width`` seconds.  Entries for the
    tick currently draining live in a small binary heap (``_current``);
    entries for future ticks are appended unordered to per-tick buckets
    in a dict, each bucket heapified only when its tick becomes current.
    A heap of pending tick indexes finds the next non-empty tick in
    O(log days); sparse far-future events therefore cost exactly what
    they would in a plain heap (their bucket is a singleton) — that heap
    of ticks *is* the far-future fallback.

    The bucket width adapts automatically: every ``_ADAPT_DAYS`` tick
    advances, the observed mean entries-per-tick is compared against a
    target band and the queue rebuilds itself with a wider (too sparse —
    pops were paying tick-advance overhead) or narrower (too dense — the
    current-tick heap was doing all the work) width.

    Entries for the *current instant* never enter the heap: the engine
    appends the bare event to ``_lane``, a FIFO it drains only once the
    heap holds nothing at ``now``.  That is ``(time, seq)`` order — heap
    entries for ``now`` were pushed earlier, so they carry the smaller
    sequence numbers — without a tuple, a sequence number or a heap
    operation per same-instant completion.
    """

    __slots__ = ("_width", "_inv_width", "_day", "_current", "_days",
                 "_ticks", "_lane", "_adv_days", "_adv_entries")

    #: Initial tick width in seconds.  RDMA service times and latencies
    #: sit in the nanosecond-to-microsecond range, so start there and
    #: let adaptation settle the rest.
    DEFAULT_WIDTH = 1e-6
    #: Rebuild bounds: keep mean entries-per-drained-tick inside
    #: [_TARGET_LO, _TARGET_HI], checked every _ADAPT_DAYS advances.
    _ADAPT_DAYS = 256
    _TARGET_LO = 2.0
    _TARGET_HI = 48.0
    _MIN_WIDTH = 1e-12
    _MAX_WIDTH = 1.0

    def __init__(self, width: float = DEFAULT_WIDTH) -> None:
        if width <= 0:
            raise SimulationError(f"bucket width must be positive: {width}")
        self._width = width
        self._inv_width = 1.0 / width
        self._day = 0                 # tick index currently draining
        self._current: List[Entry] = []    # heap: entries with tick <= _day
        self._days: dict = {}         # tick -> unordered future bucket
        self._ticks: List[int] = []   # heap of keys of _days
        self._lane: Deque[Event] = deque()  # same-instant FIFO
        self._adv_days = 0
        self._adv_entries = 0

    def __len__(self) -> int:
        # Counted on demand (the trace hook, tests): the hot push and pop
        # paths keep no running total.
        return (len(self._current) + len(self._lane)
                + sum(map(len, self._days.values())))

    @property
    def width(self) -> float:
        """Current bucket width in seconds (adapts over time)."""
        return self._width

    def push(self, entry: Entry) -> None:
        tick = int(entry[0] * self._inv_width)
        if tick <= self._day:
            heappush(self._current, entry)
        else:
            bucket = self._days.get(tick)
            if bucket is None:
                self._days[tick] = [entry]
                heappush(self._ticks, tick)
            else:
                bucket.append(entry)

    def pop_due(self, bound: float) -> Optional[Entry]:
        """Pop and return the next entry with ``time <= bound``, if any."""
        current = self._current
        if not current:
            if not self._ticks:
                return None
            self._advance()
            current = self._current
        entry = current[0]
        if entry[0] > bound:
            return None
        heappop(current)
        return entry

    def _advance(self) -> None:
        """Make the earliest pending tick current (and maybe adapt).

        ``_current`` is mutated in place (never rebound) so the engine's
        hot loop can hold a direct reference to the list across advances.
        """
        tick = heappop(self._ticks)
        bucket = self._days.pop(tick)
        self._day = tick
        current = self._current
        current.extend(bucket)
        if len(current) > 1:
            heapify(current)
        self._adv_days += 1
        self._adv_entries += len(bucket)
        if self._adv_days >= self._ADAPT_DAYS:
            self._maybe_resize()

    def _maybe_resize(self) -> None:
        mean = self._adv_entries / self._adv_days
        self._adv_days = 0
        self._adv_entries = 0
        if mean < self._TARGET_LO:
            width = self._width * 8.0
        elif mean > self._TARGET_HI:
            width = self._width / 8.0
        else:
            return
        width = min(max(width, self._MIN_WIDTH), self._MAX_WIDTH)
        if width != self._width:
            self._rebuild(width)

    def _rebuild(self, width: float) -> None:
        """Redistribute every entry under a new bucket width."""
        entries = list(self._current)
        for bucket in self._days.values():
            entries.extend(bucket)
        self._width = width
        self._inv_width = 1.0 / width
        self._days = {}
        self._ticks = []
        current = self._current
        current.clear()  # in place: the hot loop holds a reference
        if not entries:
            return
        inv = self._inv_width
        floor_tick = min(int(e[0] * inv) for e in entries)
        self._day = floor_tick
        days = self._days
        ticks = self._ticks
        for entry in entries:
            tick = int(entry[0] * inv)
            if tick <= floor_tick:
                current.append(entry)
            else:
                bucket = days.get(tick)
                if bucket is None:
                    days[tick] = [entry]
                    heappush(ticks, tick)
                else:
                    bucket.append(entry)
        heapify(current)


class Engine:
    """The event loop over a ``(time, seq)``-ordered queue.

    *queue* is the scheduling structure to drain; the default (and the
    only one production code uses) is a fresh :class:`CalendarQueue`.
    Tests pass their one-heap oracle (anything with the calendar's
    ``push`` / ``_current`` / ``_ticks`` / ``_lane`` surface; a ``_lane``
    of None orders same-instant entries by ``(time, seq)`` in the heap)
    as the reference to compare against.
    """

    def __init__(self, queue: Optional[CalendarQueue] = None) -> None:
        self._now = 0.0
        self._queue = CalendarQueue() if queue is None else queue
        self._push = self._queue.push  # bound once: schedule hot path
        # Scheduling for the current instant: an append to the queue's
        # lane, or (the lane-less oracle) an ordinary ``(now, seq)`` entry.
        lane = self._queue._lane
        self._push_now: Callable[[Event], None] = (
            self._queue_callbacks if lane is None else lane.append)
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

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of *events* triggers."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _queue_callbacks(self, event: Event) -> None:
        # Callbacks run when the queue entry is popped.  Events triggered
        # explicitly (succeed/fail) are queued at the current time so their
        # callbacks run in deterministic scheduling order, not re-entrantly.
        self._sequence += 1
        self._push((self._now, self._sequence, event))

    def _crash(self, exc: BaseException) -> None:
        if self._pending_crash is None:
            self._pending_crash = exc

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches *until*.

        Returns the simulated time at which the run stopped.  Re-raises
        the first uncaught exception from any process nobody was waiting
        on.
        """
        queue = self._queue
        bound = inf if until is None else until
        now = self._now
        if now > bound:
            return now  # everything pending is at or after now
        # The queue's pop is inlined into the loop (the current tick's
        # heap is mutated in place, so one binding survives tick
        # advances).  Saves a Python method call per processed event on
        # the hot path.  The processed counter runs in a local and is
        # written back on every exit (the ``finally``), so nothing
        # observes a stale count after the loop; hooks are rebound
        # locally too — they are configured before a run, never from
        # inside one.
        current = queue._current
        lane = queue._lane
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
                if lane and not (current and current[0][0] <= now):
                    # The heap holds nothing at this instant any more:
                    # same-instant entries go in the order scheduled.
                    event = lane.popleft()
                else:
                    if not current:
                        if not queue._ticks:
                            break
                        queue._advance()
                    entry = current[0]
                    if entry[0] > bound:
                        break
                    heappop(current)
                    event = entry[2]
                    self._now = now = entry[0]
                if event._fires_by_time:
                    if event._cancelled:
                        continue  # tombstoned timer: discard, do not count
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
                            trace_hook(self._now, processed, len(queue))
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
                    trace_hook(self._now, processed, len(queue))
        finally:
            self.events_processed = processed
        if until is not None and until > self._now:
            self._now = until
        if self._pending_crash is not None:
            exc, self._pending_crash = self._pending_crash, None
            raise exc
        return self._now
