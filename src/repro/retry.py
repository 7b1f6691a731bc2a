"""Bounded retry policies for client operations.

Every retry loop in the client stack (remote lock acquisition,
optimistic read validation, whole-operation retraversal) runs under a
:class:`RetryPolicy`: a maximum attempt count, an optional deadline in
simulated time, and a backoff curve (linear or exponential, optionally
jittered from the client's seeded RNG).  Exhausting the budget raises a
typed :class:`~repro.errors.RetryExhaustedError` /
:class:`~repro.errors.OperationTimeoutError` instead of live-locking —
the behaviour an orphaned remote lock would otherwise cause.

The default policy reproduces the historical constants (256 attempts,
0.2 us linear backoff capped at 16x the base) exactly, so enabling the
layer changes no simulated timing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator, Optional

from repro.errors import OperationTimeoutError, RetryExhaustedError
from repro.sim.engine import Engine


@dataclass(frozen=True)
class RetryPolicy:
    """How often, how long, and how fast to retry a failing step."""

    #: Attempt budget; the (max_attempts + 1)-th check raises.
    max_attempts: int = 256
    #: Optional budget in simulated seconds from the first attempt.
    deadline: Optional[float] = None
    #: Base backoff delay (seconds) between attempts.
    base_backoff: float = 0.2e-6
    #: Exponential (base * multiplier^attempt) instead of linear growth.
    exponential: bool = False
    multiplier: float = 2.0
    #: Linear mode: delay grows as base * min(attempt + 1, linear_cap).
    linear_cap: int = 16
    #: Ceiling for exponential backoff delays (seconds).
    max_backoff: float = 64e-6
    #: Jitter fraction in [0, 1]: each delay is scaled by a factor drawn
    #: uniformly from [1 - jitter, 1 + jitter] using the seeded RNG.
    jitter: float = 0.0

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if self.exponential:
            value = min(self.base_backoff * self.multiplier ** attempt,
                        self.max_backoff)
        else:
            value = self.base_backoff * min(attempt + 1, self.linear_cap)
        if self.jitter and rng is not None:
            value *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(value, 0.0)

    def start(self, what: str, engine: Engine, rng=None,
              *args) -> "RetryState":
        """Begin one bounded attempt sequence for the step named
        ``what.format(*args)`` — formatted only if the budget runs out,
        so the label costs a started sequence nothing."""
        return RetryState(self, what, engine, rng, args)

    def scaled(self, **overrides) -> "RetryPolicy":
        """A copy with fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)


#: Mirrors the historical unbounded-loop constants; identical timing.
DEFAULT_RETRY_POLICY = RetryPolicy()


class RetryState:
    """Progress of one attempt sequence under a :class:`RetryPolicy`."""

    __slots__ = ("policy", "what", "args", "engine", "rng", "attempt",
                 "started")

    def __init__(self, policy: RetryPolicy, what: str, engine: Engine,
                 rng=None, args: tuple = ()) -> None:
        self.policy = policy
        self.what = what
        self.args = args
        self.engine = engine
        self.rng = rng
        self.attempt = 0
        self.started = engine.now

    def check(self) -> bool:
        """Account one attempt; True, or raises once the budget is gone.

        Written for ``while retry.check():`` loops — the bounded
        equivalent of ``while True:``.
        """
        policy = self.policy
        if self.attempt >= policy.max_attempts:
            raise RetryExhaustedError(
                f"{self.what.format(*self.args)}: gave up after "
                f"{self.attempt} attempts")
        if policy.deadline is not None and \
                self.engine.now - self.started >= policy.deadline:
            raise OperationTimeoutError(
                f"{self.what.format(*self.args)}: deadline of "
                f"{policy.deadline * 1e6:.1f}us exceeded after "
                f"{self.attempt} attempts")
        self.attempt += 1
        return True

    def next_delay(self, cap: Optional[int] = None) -> float:
        """The backoff after the current (just-checked) attempt failed.

        *cap* limits the effective attempt index (the insert path keeps
        its backoff short because contention there is transient).
        """
        index = self.attempt - 1
        if cap is not None:
            index = min(index, cap)
        return self.policy.delay(index, self.rng)

    def backoff(self, cap: Optional[int] = None) -> Generator:
        """Sleep the backoff for the just-failed attempt (a process step)."""
        yield self.engine.timeout(self.next_delay(cap))
