"""Read-delegation and write-combining (RDWC), from SMART (OSDI '23).

RDWC coalesces concurrent operations on the *same key* issued by clients
of the *same compute node*:

* **read delegation** — one client becomes the delegate and performs the
  remote search; followers arriving while it is in flight simply wait for
  its result.
* **write combining** — concurrent updates to one key share one remote
  write: the first arrival leads and writes *its own* value; later
  arrivals, absorbed while it is in flight, take its answer and write
  nothing (each overlaps the leader, so ordering it first is a legal
  history: the leader's value is the one that lands).

The paper applies RDWC to every index "for fairness" (§5.1); it is why
throughput *rises* with Zipfian skew in Figure 18a.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator

from repro.sim.engine import Engine, Event


class RdwcCombiner:
    """Per-CN operation combiner."""

    def __init__(self, engine: Engine, enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        #: The event each in-flight leader will fire, by key.
        self._reads: Dict[Any, Event] = {}
        self._writes: Dict[Any, Event] = {}
        self.delegated_reads = 0
        self.combined_writes = 0

    def read(self, key: Any, remote_read: Callable[[], Generator]) -> Generator:
        """Run ``remote_read()`` unless the same read is in flight: then
        take its delegate's result (or exception)."""
        if self.enabled and key in self._reads:
            self.delegated_reads += 1
        return self._share(self._reads, key, remote_read)

    def write(self, key: Any, value: Any,
              remote_write: Callable[[Any], Generator]) -> Generator:
        """Run ``remote_write(value)`` unless an update of *key* is in
        flight: then take its leader's answer, *value* never written."""
        if self.enabled and key in self._writes:
            self.combined_writes += 1
        return self._share(self._writes, key, lambda: remote_write(value))

    def _share(self, in_flight: Dict[Any, Event], key: Any,
               remote: Callable[[], Generator]) -> Generator:
        """Follow *key*'s leader in *in_flight*, or lead: run *remote* and
        hand its result (or its exception) to every follower."""
        if not self.enabled:
            result = yield from remote()
            return result
        event = in_flight.get(key)
        if event is not None:
            result = yield event
            return result
        event = in_flight[key] = self.engine.event()
        try:
            result = yield from remote()
        except Exception as exc:
            del in_flight[key]
            event.fail(exc)
            raise
        del in_flight[key]
        event.succeed(result)
        return result
