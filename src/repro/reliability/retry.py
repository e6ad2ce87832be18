"""Retry with decorrelated-jitter backoff under a deadline budget.

The policy follows the "decorrelated jitter" scheme (each delay is drawn
uniformly from ``[base_delay, 3 * previous_delay]``, capped at ``max_delay``):
it spreads retry storms as well as full jitter while still growing
exponentially in expectation.  A :class:`RetryPolicy` carries an optional
``seed`` so chaos tests can pin the exact delay sequence; production callers
leave it ``None`` for OS entropy.

Two budget knobs compose:

* ``attempts`` — a hard cap on how many times the function is called.
* ``deadline`` — a wall-clock budget in seconds.  A retry never *starts*
  after the deadline; sleeps are truncated to the remaining budget.  When the
  budget is exhausted the *original* exception is re-raised (not a
  :class:`DeadlineError`) so callers see the real failure; ``DeadlineError``
  is reserved for operations that time out without an underlying exception.

Used by :class:`repro.streaming.CompressedStore` (transient ``OSError`` on
record reads) and :class:`repro.serving.QueryClient` (connect/call retries).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from .errors import DeadlineError

__all__ = ["RetryPolicy", "Deadline", "retry_call", "DEFAULT_READ_RETRY"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, and how long to wait between tries.

    Parameters
    ----------
    attempts:
        Total number of calls allowed (1 = no retries).  Must be >= 1.
    base_delay:
        Lower bound of every jittered sleep, in seconds.
    max_delay:
        Upper cap on any single sleep, in seconds.
    deadline:
        Optional wall-clock budget for the whole retry loop, in seconds.
    seed:
        Optional RNG seed.  With a seed, the delay sequence is deterministic
        (chaos tests rely on this); without, OS entropy is used.
    """

    attempts: int = 3
    base_delay: float = 0.02
    max_delay: float = 1.0
    deadline: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 <= base_delay <= max_delay, got "
                f"base_delay={self.base_delay}, max_delay={self.max_delay}"
            )

    def delays(self) -> "_DelaySequence":
        """A fresh iterator of jittered sleep durations for one retry loop."""
        return _DelaySequence(self)


class _DelaySequence:
    """Stateful decorrelated-jitter generator: next ~ U(base, 3 * previous)."""

    def __init__(self, policy: RetryPolicy):
        self._policy = policy
        self._rng = random.Random(policy.seed)
        self._previous = policy.base_delay

    def __iter__(self) -> "_DelaySequence":
        return self

    def __next__(self) -> float:
        policy = self._policy
        delay = min(
            policy.max_delay,
            self._rng.uniform(policy.base_delay, max(policy.base_delay, self._previous * 3)),
        )
        self._previous = delay
        return delay


class Deadline:
    """A wall-clock budget that many operations can draw down together.

    Created once per logical call (e.g. one :meth:`QueryClient.evaluate`) and
    consulted by every stage: ``remaining()`` truncates socket timeouts and
    retry sleeps, ``expired()`` short-circuits work that cannot finish.
    """

    __slots__ = ("_expires_at", "budget")

    def __init__(self, budget: float, *, _now: Optional[float] = None):
        if budget <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget}")
        self.budget = float(budget)
        start = time.monotonic() if _now is None else _now
        self._expires_at = start + self.budget

    @classmethod
    def after(cls, budget: Optional[float]) -> Optional["Deadline"]:
        """``Deadline(budget)``, or ``None`` when no budget was requested."""
        return None if budget is None else cls(budget)

    def remaining(self) -> float:
        """Seconds left, never negative."""
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        """True once the budget is fully spent."""
        return self.remaining() <= 0.0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineError` if the budget is spent."""
        if self.expired():
            raise DeadlineError(
                f"{what} exceeded its {self.budget:g}s deadline"
            )


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    deadline: Optional[Deadline] = None,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` with retries per ``policy``; return its first success.

    Only exceptions matching ``retry_on`` are retried; anything else (a
    :class:`CodecError`, say) propagates immediately — retrying the same bad
    bytes cannot help.  ``on_retry(attempt_number, exc)`` is invoked before
    each re-attempt, which is how the store counts its read retries.  When
    ``policy.deadline`` (or an explicit ``deadline``) runs out, the last
    exception from ``fn`` is re-raised.

    The success path allocates nothing: the jitter generator (a seeded
    ``random.Random``) and the policy's deadline are built on the first
    retryable failure, the deadline counted from the start of the call.
    """
    started = None
    if deadline is None and policy.deadline is not None:
        started = time.monotonic()
    delays = None
    last_exc: BaseException | None = None
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            last_exc = exc
            if attempt >= policy.attempts:
                break
            if delays is None:
                delays = policy.delays()
                if started is not None:
                    deadline = Deadline(policy.deadline, _now=started)
            pause = next(delays)
            if deadline is not None:
                left = deadline.remaining()
                if left <= 0:
                    break
                pause = min(pause, left)
            if on_retry is not None:
                on_retry(attempt, exc)
            if pause > 0:
                sleep(pause)
    assert last_exc is not None
    raise last_exc


#: Default policy for transient OSError on store record reads: three quick
#: tries well under any request deadline.
DEFAULT_READ_RETRY = RetryPolicy(attempts=3, base_delay=0.005, max_delay=0.1)
