"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """An inconsistency inside the discrete-event simulation engine."""


class MemoryAccessError(ReproError):
    """An RDMA verb addressed memory outside any registered region."""


class AllocationError(ReproError):
    """The memory pool could not satisfy an allocation request."""


class LayoutError(ReproError):
    """A node byte layout could not be encoded or decoded."""


class TornReadError(ReproError):
    """A read observed an inconsistent (torn) state.

    Raised internally by optimistic-synchronization checks; index
    operations catch it and retry.  It escaping to user code means a
    retry loop is missing.
    """


class IndexError_(ReproError):
    """Base class for index-level failures (name avoids shadowing builtins)."""


class HashTableFullError(IndexError_):
    """A hopscotch insertion found no empty entry and no feasible hop."""


class WorkloadError(ReproError):
    """A workload specification is invalid."""


class ConfigError(ReproError, ValueError):
    """A run-level knob (flag, ``REPRO_*`` variable or config field)
    carries a value its validator rejects, or a fault spec could never
    fire; the message names the knob or the spec's value."""


class RetryExhaustedError(ReproError):
    """A bounded retry loop used up its attempt budget.

    Raised by :class:`repro.retry.RetryState` when an operation (lock
    acquisition, optimistic read validation, or a whole index operation)
    keeps failing past ``RetryPolicy.max_attempts``.  Replaces silent
    live-locking: an orphaned remote lock or a persistently torn node
    surfaces as this typed error instead of hanging the client.
    """


class QueueWaitTimeoutError(RetryExhaustedError):
    """A pessimistic-mode waiter exhausted its budget while queued.

    With CIDER-style ticket locking enabled (``--sync-mode pessimistic``
    or ``adaptive``), a client that takes a queue ticket but never
    becomes the serving holder within its :class:`repro.retry.RetryPolicy`
    budget raises this instead of polling forever.  The abandoned ticket
    is dropped by later waiters (lease mode) or reported as stranded by
    the chaos harness.
    """


class LockLeaseExpiredError(ReproError):
    """A lock holder outlived its own lease.

    With lease-based locks enabled, a holder that reaches its unlock
    after the lease expiry may already have been stolen from; writing
    the unlock would clobber the stealer's state.  The unlock path
    raises this instead.  Seeing it means ``lease_duration`` is too
    short for the configured operation latency.
    """


class FaultInjectedError(ReproError):
    """An injected fault (verb loss / MN unavailability) failed a verb.

    Raised by :class:`repro.faults.FaultInjector` after charging the
    verb-timeout delay.  Index operations treat it like a transient
    fabric error and retry within their :class:`repro.retry.RetryPolicy`
    budget.
    """
