"""Unit tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, Timeline
from tests.oracles import HeapQueue
from repro.sim.resources import QueueServer


def test_timeout_advances_clock():
    engine = Engine()
    log = []

    def proc():
        yield engine.timeout(1.5)
        log.append(engine.now)
        yield engine.timeout(0.5)
        log.append(engine.now)

    engine.process(proc())
    engine.run()
    assert log == [1.5, 2.0]


def test_timeout_value_delivered():
    engine = Engine()
    seen = []

    def proc():
        value = yield engine.timeout(1.0, value="payload")
        seen.append(value)

    engine.process(proc())
    engine.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.timeout(-1.0)


def test_process_return_value_via_yield_from():
    engine = Engine()
    results = []

    def inner():
        yield engine.timeout(1.0)
        return 42

    def outer():
        value = yield from inner()
        results.append((engine.now, value))

    engine.process(outer())
    engine.run()
    assert results == [(1.0, 42)]


def test_waiting_on_process_event():
    engine = Engine()
    results = []

    def worker():
        yield engine.timeout(2.0)
        return "done"

    def waiter():
        proc = engine.process(worker())
        value = yield proc
        results.append((engine.now, value))

    engine.process(waiter())
    engine.run()
    assert results == [(2.0, "done")]


def test_events_same_time_fifo_order():
    engine = Engine()
    order = []

    def proc(tag):
        yield engine.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        engine.process(proc(tag))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_all_of_collects_values():
    engine = Engine()
    results = []

    def proc():
        events = [engine.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
        values = yield engine.all_of(events)
        results.append((engine.now, values))

    engine.process(proc())
    engine.run()
    assert results == [(3.0, [3.0, 1.0, 2.0])]


def test_all_of_with_already_triggered_children():
    engine = Engine()
    results = []

    def proc():
        first = engine.timeout(1.0, value="a")
        yield engine.timeout(2.0)  # first has already fired by now
        values = yield engine.all_of([first, engine.timeout(1.0, value="b")])
        results.append((engine.now, values))

    engine.process(proc())
    engine.run()
    assert results == [(3.0, ["a", "b"])]


def test_all_of_empty_triggers_immediately():
    engine = Engine()
    results = []

    def proc():
        values = yield engine.all_of([])
        results.append((engine.now, values))

    engine.process(proc())
    engine.run()
    assert results == [(0.0, [])]


def test_uncaught_process_exception_propagates():
    engine = Engine()

    def proc():
        yield engine.timeout(1.0)
        raise ValueError("boom")

    engine.process(proc())
    with pytest.raises(ValueError, match="boom"):
        engine.run()


def test_exception_thrown_into_waiter():
    engine = Engine()
    caught = []

    def worker():
        yield engine.timeout(1.0)
        raise RuntimeError("worker failed")

    def waiter():
        proc = engine.process(worker())
        try:
            yield proc
        except RuntimeError as exc:
            caught.append(str(exc))

    engine.process(waiter())
    engine.run()
    assert caught == ["worker failed"]


def test_event_succeed_twice_is_error():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_run_until_stops_early():
    engine = Engine()
    log = []

    def proc():
        while True:
            yield engine.timeout(1.0)
            log.append(engine.now)

    engine.process(proc())
    end = engine.run(until=3.5)
    assert end == 3.5
    assert log == [1.0, 2.0, 3.0]


def test_run_until_with_empty_heap_advances_clock():
    engine = Engine()
    end = engine.run(until=10.0)
    assert end == 10.0
    assert engine.now == 10.0


def test_yield_non_event_fails_process():
    engine = Engine()

    def bad():
        yield "not an event"

    def waiter():
        proc = engine.process(bad())
        with pytest.raises(SimulationError):
            yield proc

    engine.process(waiter())
    engine.run()


def test_yield_non_event_with_no_waiter_raises_from_run():
    # Like any uncaught exception: nobody waits on the process, so the
    # failure surfaces from run() instead of sitting on the process.
    engine = Engine()

    def bad():
        yield 5

    proc = engine.process(bad())
    with pytest.raises(SimulationError, match="yielded 5"):
        engine.run()
    assert not proc.is_alive


def test_deterministic_interleaving_repeatable():
    def run_once():
        engine = Engine()
        order = []

        def proc(tag, delay):
            for _ in range(3):
                yield engine.timeout(delay)
                order.append((tag, engine.now))

        engine.process(proc("a", 1.0))
        engine.process(proc("b", 1.0))
        engine.process(proc("c", 0.5))
        engine.run()
        return order

    assert run_once() == run_once()


# -- the same-instant lane against the (time, seq) oracle -------------------
#
# Random programs whose delays come from a tiny integer grid, so most of
# what they schedule ties with something else: zero-delay timeouts,
# succeed/fail chains, all_of, zero-service queue slices, a timeline
# walking its positions — and run(until=) cut-offs that land on those
# crowded instants.  The production engine (heap + lane) must process
# exactly what the lane-less heap oracle does.

DELAYS = st.sampled_from([0.0, 0.0, 1.0, 2.0])
SLOTS = 3  # shared events; a program runs up to SLOTS + 1 processes


class _Walk(Timeline):
    """Latency hop -> queue slice -> one more same-instant position."""

    __slots__ = ("hops", "server")

    def __init__(self, engine, server, hops):
        Timeline.__init__(self, engine)
        self.server = server
        self.hops = list(hops)
        self._after(self.hops.pop())

    def fire(self):
        if len(self.hops) > 1:
            self.server.request(self.hops.pop(), done=self)
        elif self.hops:
            self.hops.pop()
            self.engine._push_now(self)
        else:
            self._finish("walked")


INSTRUCTIONS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.sampled_from(["succeed", "fail", "wait"]),
              st.integers(0, SLOTS - 1)),
    st.tuples(st.just("all_of"), st.lists(DELAYS, min_size=1, max_size=3)),
    st.tuples(st.just("serve"), DELAYS),
    st.tuples(st.just("walk"), st.tuples(DELAYS, DELAYS, DELAYS)),
)
PROGRAMS = st.lists(st.lists(INSTRUCTIONS, min_size=1, max_size=6),
                    min_size=1, max_size=SLOTS + 1)
CUTOFFS = st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]), max_size=3)


def _execute(engine, program, cutoffs):
    """Run *program* on *engine*; what was observable after each run()."""
    engine.event_log = []
    shared = [engine.event() for _ in range(SLOTS)]
    server = QueueServer(engine, slots=1)
    trace = []

    def body(tag, instructions):
        for step, (kind, arg) in enumerate(instructions):
            try:
                if kind == "sleep":
                    yield engine.timeout(arg)
                elif kind == "succeed" and not shared[arg].triggered:
                    shared[arg].succeed(tag)
                elif kind == "fail" and not shared[arg].triggered:
                    shared[arg].fail(ValueError(tag))
                elif kind == "wait":
                    yield shared[arg]
                elif kind == "all_of":
                    yield engine.all_of([engine.timeout(d) for d in arg])
                elif kind == "serve":
                    yield server.request(arg)
                elif kind == "walk":
                    yield _Walk(engine, server, arg)
            except ValueError as exc:
                trace.append((tag, step, type(exc).__name__, engine.now))
            trace.append((tag, step, engine.now))

    for tag, instructions in enumerate(program):
        engine.process(body(tag, instructions))
    observed = []
    for until in [*sorted(cutoffs), None]:
        engine.run(until=until)
        observed.append((engine.now, engine.events_processed,
                         list(engine.event_log), list(trace)))
    return observed


@given(PROGRAMS, CUTOFFS)
@settings(max_examples=300, deadline=None)
def test_lane_matches_heap_oracle_on_random_programs(program, cutoffs):
    assert (_execute(Engine(), program, cutoffs)
            == _execute(Engine(queue=HeapQueue()), program, cutoffs))


def test_cutoff_on_an_instant_with_lane_entries_pending():
    # Everything scheduled *for* the cut-off instant runs before run()
    # returns; what it schedules for later does not.
    engine = Engine()
    log = []

    def chain():
        yield engine.timeout(1.0)
        for hop in range(3):
            yield engine.timeout(0.0)  # same-instant lane entries
            log.append((hop, engine.now))
        yield engine.timeout(1.0)
        log.append(("late", engine.now))

    engine.process(chain())
    assert engine.run(until=1.0) == 1.0
    assert log == [(0, 1.0), (1, 1.0), (2, 1.0)]
    engine.run()
    assert log[-1] == ("late", 2.0)


def test_trace_hook_queue_length_counts_lane_entries():
    engine = Engine()
    seen = []
    engine.trace_interval = 1
    engine.trace_hook = lambda now, processed, queued: seen.append(queued)
    for _ in range(3):
        engine.event().succeed()  # three same-instant entries, no heap entry
    engine.run()
    assert seen == [2, 1, 0]
