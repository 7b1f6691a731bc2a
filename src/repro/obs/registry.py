"""Named metrics: counters, gauges, histograms, and the event collector.

The :class:`Registry` is a flat namespace of metrics an experiment run
accumulates; :meth:`Registry.snapshot` flattens everything into a
``Dict[str, float]`` suitable for :attr:`RunResult.notes
<repro.bench.metrics.RunResult>` and table printing.

:class:`MetricsCollector` is the bridge from the event bus: it
subscribes to the instrumentation events emitted across the stack (verb
issues, cache hits/evictions, NIC queue depth samples, torn-read
retries, hopscotch displacement lengths, lock-CAS failures) and folds
them into registry metrics.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from repro.obs.bus import EventBus, ObsEvent

__all__ = ["Counter", "Gauge", "Histogram", "Registry", "MetricsCollector",
           "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds (roughly log2-spaced).
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                   512.0, 1024.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram with sum/count/max tracking.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything above the last bound.  ``bucket_counts[i]`` is the
    number of observations with ``value <= bounds[i]`` (and greater than
    the previous bound) — plain per-bucket counts, not cumulative.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "max")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds}")
        self.name = name
        self.bounds: List[float] = list(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the *fraction* quantile."""
        if not self.count:
            return 0.0
        rank = max(1, int(fraction * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max


class Registry:
    """A namespace of metrics, created lazily by name."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_BUCKETS)
        return metric

    def snapshot(self, prefix: str = "") -> Dict[str, float]:
        """Flatten every metric into ``{prefix + name: value}``.

        Histograms contribute ``.count`` / ``.mean`` / ``.p99`` / ``.max``
        sub-keys so tail behaviour survives the flattening.
        """
        out: Dict[str, float] = {}
        for name, counter in sorted(self._counters.items()):
            out[prefix + name] = counter.value
        for name, gauge in sorted(self._gauges.items()):
            out[prefix + name] = gauge.value
        for name, histogram in sorted(self._histograms.items()):
            out[prefix + name + ".count"] = float(histogram.count)
            out[prefix + name + ".mean"] = round(histogram.mean, 4)
            out[prefix + name + ".p99"] = round(histogram.quantile(0.99), 4)
            out[prefix + name + ".max"] = round(histogram.max, 4)
        return out


#: Displacement lengths beyond ~8 hops are pathological; keep them visible.
_DISPLACEMENT_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

#: NIC queue depths (requests waiting + in service) at arrival.
_QUEUE_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Event kinds folded into a counter of the same name, and nothing else.
_COUNTED = frozenset((
    "cache.hit", "cache.miss", "cache.evict", "cache.invalidate", "lock.cas_fail",
    "lock.steal", "lock.lease_expired", "lock.repair", "lock.lease_overrun",
    "queue.handoff", "queue.drop", "queue.wait_timeout", "hotspot.hit", "hotspot.miss",
    "speculative.correct", "speculative.wrong"))


class MetricsCollector:
    """Folds bus events into a :class:`Registry`.

    One collector serves one recording; attach it with
    :meth:`attach` / detach with :meth:`detach` (or use
    :class:`repro.obs.Recording`, which manages both).
    """

    def __init__(self, registry: Optional[Registry] = None) -> None:
        self.registry = registry if registry is not None else Registry()
        self._sub = None

    def attach(self, bus: EventBus) -> None:
        if self._sub is None:
            self._sub = bus.subscribe(self.on_event)

    def detach(self) -> None:
        if self._sub is not None:
            self._sub.unsubscribe()
            self._sub = None

    # -- event folding -------------------------------------------------------

    def on_event(self, event: ObsEvent) -> None:
        kind = event.kind
        data = event.data
        registry = self.registry
        if kind == "verb":
            registry.counter(f"verb.{data['kind']}").inc()
            registry.counter("verb.bytes").inc(data.get("size", 0))
        elif kind in _COUNTED or kind.startswith("fault."):
            registry.counter(kind).inc()
        elif kind == "nic.queue":
            registry.histogram(f"nic.{data['direction']}.depth",
                               _QUEUE_BUCKETS).observe(data["depth"])
        elif kind == "sync.torn":
            registry.counter(f"sync.torn_l{data['level']}").inc()
        elif kind == "sync.mode_switch":
            registry.counter(kind).inc()
            registry.counter(f"{kind}.{data['direction']}").inc()
        elif kind == "placement.switch":
            registry.counter(kind).inc()
            registry.counter(f"{kind}.{data['source']}_to_{data['target']}").inc()
        elif kind == "queue.enqueue":
            registry.counter(kind).inc()
            registry.histogram("queue.depth", _QUEUE_BUCKETS).observe(
                data["depth"])
        elif kind == "hopscotch.displacement":
            registry.histogram(kind, _DISPLACEMENT_BUCKETS).observe(
                data["moves"])
        elif kind == "sim.tick":
            registry.gauge("sim.events").set(data["events"])
            registry.histogram("sim.heap", _QUEUE_BUCKETS).observe(
                data["heap"])
        elif kind == "span":
            duration_us = (data["end"] - data["begin"]) * 1e6
            registry.histogram(f"span.{data['name']}.us").observe(duration_us)
