"""Unit tests for QueueServer and Lock."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine
from repro.sim.resources import Lock, QueueServer


def test_queue_server_serializes_requests():
    engine = Engine()
    server = QueueServer(engine, slots=1)
    completions = []

    def client(tag):
        yield server.request(1.0)
        completions.append((tag, engine.now))

    for tag in range(3):
        engine.process(client(tag))
    engine.run()
    assert completions == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_queue_server_parallel_slots():
    engine = Engine()
    server = QueueServer(engine, slots=2)
    completions = []

    def client(tag):
        yield server.request(1.0)
        completions.append((tag, engine.now))

    for tag in range(4):
        engine.process(client(tag))
    engine.run()
    assert completions == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]


def test_queue_server_fifo_under_varied_service_times():
    engine = Engine()
    server = QueueServer(engine, slots=1)
    completions = []

    def client(tag, service):
        yield server.request(service)
        completions.append(tag)

    engine.process(client("long", 5.0))
    engine.process(client("short", 0.1))
    engine.run()
    # FIFO: the long request arrived first and is served first.
    assert completions == ["long", "short"]


def test_queue_server_statistics():
    engine = Engine()
    server = QueueServer(engine, slots=1)

    def client():
        yield server.request(2.0)

    engine.process(client())
    engine.process(client())
    engine.run()
    assert server.served == 2
    assert server.busy_time == pytest.approx(4.0)


def test_queue_server_rejects_bad_args():
    engine = Engine()
    with pytest.raises(SimulationError):
        QueueServer(engine, slots=0)
    server = QueueServer(engine)
    with pytest.raises(SimulationError):
        server.request(-1.0)


def test_queue_server_zero_service_time():
    engine = Engine()
    server = QueueServer(engine, slots=1)
    done = []

    def client():
        yield server.request(0.0)
        done.append(engine.now)

    engine.process(client())
    engine.run()
    assert done == [0.0]


def test_lock_mutual_exclusion():
    engine = Engine()
    lock = Lock(engine)
    trace = []

    def worker(tag):
        yield lock.acquire()
        trace.append(("enter", tag, engine.now))
        yield engine.timeout(1.0)
        trace.append(("exit", tag, engine.now))
        lock.release()

    engine.process(worker("a"))
    engine.process(worker("b"))
    engine.run()
    assert trace == [
        ("enter", "a", 0.0), ("exit", "a", 1.0),
        ("enter", "b", 1.0), ("exit", "b", 2.0),
    ]


def test_lock_release_when_free_is_error():
    engine = Engine()
    lock = Lock(engine)
    with pytest.raises(SimulationError):
        lock.release()


def test_request_completes_a_caller_supplied_done():
    engine = Engine()
    server = QueueServer(engine, slots=1)
    done = engine.event()
    assert server.request(2.0, done=done) is done
    engine.run()
    assert done.triggered and done.value == 2.0


def test_zero_service_requests_complete_now_in_fifo_order():
    engine = Engine()
    server = QueueServer(engine, slots=1)
    order = []

    def client(tag):
        yield engine.timeout(1.0)
        yield server.request(0.0)
        order.append((tag, engine.now))

    for tag in range(3):
        engine.process(client(tag))
    engine.run()
    assert order == [(0, 1.0), (1, 1.0), (2, 1.0)]
    assert server.served == 3 and server.busy_time == 0.0
