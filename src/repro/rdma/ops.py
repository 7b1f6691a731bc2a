"""Verb descriptors and per-queue-pair traffic accounting."""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from operator import sub

#: Payload of an atomic verb (the 8-byte operand; masked-CAS carries masks
#: too, folded into the header).
ATOMIC_PAYLOAD = 8

#: Application-level payload of an allocation RPC request / response.
RPC_REQUEST_BYTES = 64
RPC_RESPONSE_BYTES = 16


@dataclass
class TrafficStats:
    """Counters a queue pair maintains; the bench layer reads deltas.

    ``rtts`` counts *round trips* — a doorbell-batched group of verbs is
    one round trip, matching how the paper's Table 1 counts operations.
    """

    rtts: int = 0
    verbs: int = 0
    reads: int = 0
    writes: int = 0
    atomics: int = 0
    rpcs: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    retries: int = 0

    def snapshot(self) -> "TrafficStats":
        """A copy for delta computation around one index operation."""
        return replace(self)

    def delta(self, before: "TrafficStats") -> "TrafficStats":
        """Counters accumulated since *before* was snapshotted."""
        return TrafficStats(*map(sub, astuple(self), astuple(before)))

    def merge(self, other: "TrafficStats") -> None:
        """Accumulate *other* into this instance (for cluster-wide totals)."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
