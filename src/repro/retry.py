"""Bounded retry policies for client operations.

Every retry loop in the client stack (remote lock acquisition,
optimistic read validation, whole-operation retraversal) runs under a
:class:`RetryPolicy`: an attempt budget.  Exhausting it raises a typed
:class:`~repro.errors.RetryExhaustedError` instead of live-locking —
the behaviour an orphaned remote lock would otherwise cause.

Between attempts every loop backs off on one linear curve,
:data:`BASE_BACKOFF` × min(attempt + 1, :data:`LINEAR_CAP`); the queued
lock's poll alone jitters it, from the client's seeded RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ConfigError, RetryExhaustedError
from repro.sim.engine import Engine

#: Backoff before the first retry, in seconds.
BASE_BACKOFF = 0.2e-6
#: The backoff grows linearly up to this many times :data:`BASE_BACKOFF`.
LINEAR_CAP = 16


@dataclass(frozen=True)
class RetryPolicy:
    """How often to retry a failing step."""

    #: Attempt budget; the (max_attempts + 1)-th check raises.
    max_attempts: int = 256

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"RetryPolicy.max_attempts must be >= 1: "
                              f"{self.max_attempts}")

    @staticmethod
    def delay(attempt: int, rng=None, jitter: float = 0.0) -> float:
        """Backoff before retry number ``attempt`` (0-based).

        With ``jitter`` > 0 and a seeded ``rng``, the delay is scaled by
        a factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.
        """
        value = BASE_BACKOFF * min(attempt + 1, LINEAR_CAP)
        if jitter and rng is not None:
            value *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
        return value

    def start(self, what: str, engine: Engine, rng=None,
              *args) -> "RetryState":
        """Begin one bounded attempt sequence for the step named
        ``what.format(*args)`` — formatted only if the budget runs out,
        so the label costs a started sequence nothing."""
        return RetryState(self, what, engine, rng, args)


#: 256 attempts.
DEFAULT_RETRY_POLICY = RetryPolicy()


class RetryState:
    """Progress of one attempt sequence under a :class:`RetryPolicy`."""

    __slots__ = ("policy", "what", "args", "engine", "rng", "attempt")

    def __init__(self, policy: RetryPolicy, what: str, engine: Engine,
                 rng=None, args: tuple = ()) -> None:
        self.policy = policy
        self.what = what
        self.args = args
        self.engine = engine
        self.rng = rng
        self.attempt = 0

    def check(self) -> bool:
        """Account one attempt; True, or raises once the budget is gone.

        Written for ``while retry.check():`` loops — the bounded
        equivalent of ``while True:``.
        """
        if self.attempt >= self.policy.max_attempts:
            raise RetryExhaustedError(
                f"{self.what.format(*self.args)}: gave up after "
                f"{self.attempt} attempts")
        self.attempt += 1
        return True

    def next_delay(self, cap: Optional[int] = None,
                   jitter: float = 0.0) -> float:
        """The backoff after the current (just-checked) attempt failed.

        *cap* limits the effective attempt index (the insert path keeps
        its backoff short because contention there is transient);
        *jitter* scales it from the sequence's rng (the queue poll).
        """
        index = self.attempt - 1
        if cap is not None:
            index = min(index, cap)
        return self.policy.delay(index, self.rng, jitter)

    def backoff(self, cap: Optional[int] = None) -> Generator:
        """Sleep the backoff for the just-failed attempt (a process step)."""
        yield self.engine.timeout(self.next_delay(cap))
