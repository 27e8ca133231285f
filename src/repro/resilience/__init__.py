"""Resilience machinery for the serving path.

Four pieces keep the Fig. 1 loop answering when inputs are malformed,
detectors misbehave, or a case blows its latency budget:

* :mod:`~repro.resilience.budget` — cooperative deadline budgets checked
  at BFS layer boundaries, so an over-budget search returns a
  partial-but-valid result (``stop_reason="deadline"``) instead of
  hanging the loop;
* :mod:`~repro.resilience.degrade` — the graceful-degradation ladder
  (delta -> full -> layer_capped) with the
  chosen tier recorded on every result;
* :mod:`~repro.resilience.breaker` — retry/backoff and three-state
  circuit breakers around pluggable pipeline stages;
* :mod:`~repro.resilience.chaos` — the deterministic fault-injection
  harness behind ``tests/resilience/`` and ``make chaos`` (import it
  explicitly; it pulls in the detection stack).

See ``docs/resilience.md`` for semantics and tuning guidance.
"""

from .breaker import CircuitBreaker, CircuitOpenError, RetryPolicy, guarded_call
from .budget import Budget, StepClock
from .degrade import TIERS, DegradationDecision, DegradationPolicy

__all__ = [
    "Budget",
    "StepClock",
    "DegradationDecision",
    "DegradationPolicy",
    "TIERS",
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryPolicy",
    "guarded_call",
]
