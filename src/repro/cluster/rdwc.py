"""Read-delegation and write-combining (RDWC), from SMART (OSDI '23).

RDWC coalesces concurrent operations on the *same key* issued by clients
of the *same compute node*:

* **read delegation** — one client becomes the delegate and performs the
  remote search; a follower that arrives at the simulated instant the
  delegate issued it waits for its result.  A later arrival issues its own
  read (and becomes the key's delegate): by then the delegate's READ may
  have sampled memory before a write that answered before the follower
  was invoked, and handing it that value would be an illegal history.
* **write combining** — concurrent updates to one key share one remote
  write: the first arrival leads and writes *its own* value; later
  arrivals, absorbed while it is in flight, take its answer and write
  nothing (each overlaps the leader, so ordering it first is a legal
  history: the leader's value is the one that lands).

The paper applies RDWC to every index "for fairness" (§5.1); it is why
throughput *rises* with Zipfian skew in Figure 18a.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Tuple

from repro.sim.engine import Engine, Event


class RdwcCombiner:
    """Per-CN operation combiner."""

    def __init__(self, engine: Engine, enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        #: ``(instant it started, event it will fire)`` of each in-flight
        #: leader, by key.
        self._reads: Dict[Any, Tuple[float, Event]] = {}
        self._writes: Dict[Any, Tuple[float, Event]] = {}
        self.delegated_reads = 0
        self.combined_writes = 0

    def read(self, key: Any, remote_read: Callable[[], Generator]) -> Generator:
        """Run ``remote_read()`` unless the same read was issued at this
        very instant: then take its delegate's result (or exception)."""
        if not self.enabled:
            return remote_read()
        leader = self._reads.get(key)
        if leader is not None and leader[0] == self.engine.now:
            self.delegated_reads += 1
            return self._follow(leader)
        return self._lead(self._reads, key, remote_read)

    def write(self, key: Any, value: Any,
              remote_write: Callable[[Any], Generator]) -> Generator:
        """Run ``remote_write(value)`` unless an update of *key* is in
        flight: then take its leader's answer, *value* never written."""
        if not self.enabled:
            return remote_write(value)
        leader = self._writes.get(key)
        if leader is not None:
            self.combined_writes += 1
            return self._follow(leader)
        return self._lead(self._writes, key, lambda: remote_write(value))

    @staticmethod
    def _follow(leader: Tuple[float, Event]) -> Generator:
        result = yield leader[1]
        return result

    def _lead(self, in_flight: Dict[Any, Tuple[float, Event]], key: Any,
              remote: Callable[[], Generator]) -> Generator:
        """Lead *key* in *in_flight* (a later read may replace it there):
        run *remote* and hand its result (or exception) to every follower."""
        leader = in_flight[key] = (self.engine.now, self.engine.event())
        try:
            result = yield from remote()
        except Exception as exc:
            if in_flight.get(key) is leader:
                del in_flight[key]
            leader[1].fail(exc)
            raise
        if in_flight.get(key) is leader:
            del in_flight[key]
        leader[1].succeed(result)
        return result
