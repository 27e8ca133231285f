"""Retry-with-backoff and circuit breakers for pluggable stages.

The service pipeline calls user-supplied forecasters and detectors every
interval.  Those are exactly the call sites where a transient failure
should be retried, a persistent failure should stop being retried (so a
broken detector does not add its timeout to every interval), and the
caller should fall back to a degraded-but-deterministic implementation
instead of dropping the interval.

:class:`CircuitBreaker` implements the standard three-state machine:

* ``closed`` — calls flow through; consecutive failures are counted.
* ``open`` — after *failure_threshold* consecutive failures, calls are
  rejected immediately with :class:`CircuitOpenError` (no retry storms,
  no per-interval timeout tax) until *recovery_time* has passed.
* ``half_open`` — the first call after the cool-down is a probe: success
  closes the breaker, failure re-opens it.

Sleeping and time are injectable so the chaos suite drives every
transition deterministically, and state changes are counted under the
``resilience_breaker_transitions_total{state=...}`` family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from .. import obs

__all__ = [
    "CircuitOpenError",
    "RetryPolicy",
    "CircuitBreaker",
    "guarded_call",
    "BREAKER_STATE_VALUES",
]

#: Numeric encoding of breaker states for the ``resilience_breaker_state``
#: gauge (scrapeable ordering: higher = less available).
BREAKER_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


class CircuitOpenError(RuntimeError):
    """Raised instead of calling through while a breaker is open."""


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff.

    ``max_attempts`` counts the first try: the default of 2 means one
    retry.  Backoff sleeps ``backoff_base * backoff_factor**n`` between
    attempts through the injectable *sleep* (pass a no-op in tests).
    """

    max_attempts: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0.0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry *attempt* (attempt 1 = first retry)."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass
class CircuitBreaker:
    """Consecutive-failure breaker with a cool-down probe.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    recovery_time:
        Seconds the breaker stays open before allowing a half-open probe.
    name:
        ``breaker`` label on the ``resilience_breaker_transitions_total``
        counter so one registry can watch several breakers.
    clock:
        Injectable monotonic time source.
    """

    failure_threshold: int = 3
    recovery_time: float = 30.0
    name: str = "breaker"
    clock: Callable[[], float] = time.monotonic
    state: str = field(default="closed", init=False)
    consecutive_failures: int = field(default=0, init=False)
    _opened_at: Optional[float] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.recovery_time < 0.0:
            raise ValueError("recovery_time must be non-negative")

    def _transition(self, state: str) -> None:
        if state != self.state:
            self.state = state
            obs.inc(
                "resilience_breaker_transitions_total", breaker=self.name, state=state
            )
            self.export_state_gauge()

    def export_state_gauge(self) -> None:
        """Publish the current state as ``resilience_breaker_state``.

        Called on every transition, and by serving loops once per tick so
        a scrape started mid-run still sees every breaker (a gauge only
        written on transitions would be invisible until the first trip).
        """
        obs.set_gauge(
            "resilience_breaker_state",
            BREAKER_STATE_VALUES.get(self.state, -1),
            breaker=self.name,
        )

    def allow(self) -> bool:
        """Whether a call may proceed right now (may half-open the breaker)."""
        if self.state == "open":
            if (
                self._opened_at is not None
                and self.clock() - self._opened_at >= self.recovery_time
            ):
                self._transition("half_open")
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._opened_at = None
        self._transition("closed")

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == "half_open" or self.consecutive_failures >= self.failure_threshold:
            self._opened_at = self.clock()
            self._transition("open")

    def call(self, func: Callable, *args, **kwargs):
        """Run *func* through the breaker (no retries; see :func:`guarded_call`)."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit {self.name!r} is open "
                f"({self.consecutive_failures} consecutive failures)"
            )
        try:
            result = func(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


def guarded_call(
    func: Callable,
    *args,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    stage: str = "stage",
    **kwargs,
) -> Tuple[object, Optional[Exception]]:
    """Run *func* with retries behind an optional breaker; never raises.

    Returns ``(result, None)`` on success or ``(None, last_error)`` when
    every attempt failed or the breaker rejected the call — the caller
    decides the fallback.  Failed attempts bump
    ``resilience_retry_total{stage=...}``; exhausted calls bump
    ``resilience_stage_failures_total{stage=...}``.
    """
    retry = retry if retry is not None else RetryPolicy()
    last_error: Optional[Exception] = None
    for attempt in range(1, retry.max_attempts + 1):
        if breaker is not None and not breaker.allow():
            last_error = CircuitOpenError(
                f"circuit {breaker.name!r} is open "
                f"({breaker.consecutive_failures} consecutive failures)"
            )
            break
        try:
            result = func(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - resilience boundary
            last_error = exc
            if breaker is not None:
                breaker.record_failure()
            if attempt < retry.max_attempts:
                obs.inc("resilience_retry_total", stage=stage)
                retry.sleep(retry.delay(attempt))
            continue
        if breaker is not None:
            breaker.record_success()
        return result, None
    obs.inc("resilience_stage_failures_total", stage=stage)
    return None, last_error
