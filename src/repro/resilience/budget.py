"""Cooperative deadline budgets for the serving path.

A :class:`Budget` is the contract between the operational loop and the
search kernels: the caller decides how many wall-clock milliseconds one
localization may spend, and every long-running stage *cooperatively*
checks the budget at natural safe points (BFS layer boundaries) instead
of being interrupted.  An over-budget search therefore never hangs the
Fig. 1 loop and never returns a torn result — it finishes the layer it
is in and returns the candidates found so far with
``SearchStats.stop_reason == "deadline"``, which is exactly the result
an explicit ``max_layer`` cap at the same depth would have produced
(asserted by ``tests/resilience/test_budget.py``).

The clock is injectable so tests (and the chaos harness) can drive
expiry deterministically: :class:`StepClock` advances a fixed amount per
reading.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["Budget", "StepClock"]


class StepClock:
    """Deterministic clock: starts at 0.0, advances *step* per reading.

    Picklable (plain attributes, no closures), so a budget built on a
    step clock can cross a process boundary and replay identically.
    """

    def __init__(self, step: float = 1.0, start: float = 0.0):
        if step < 0.0:
            raise ValueError("step must be non-negative")
        self.step = float(step)
        self.now = float(start)

    def __call__(self) -> float:
        current = self.now
        self.now += self.step
        return current


class Budget:
    """A wall-clock allowance checked cooperatively at stage boundaries.

    Parameters
    ----------
    seconds:
        Total allowance.  ``None`` means unlimited: :meth:`expired` is
        always ``False`` and :meth:`fraction_remaining` is always 1.0,
        so an absent budget costs one ``is None`` check on the hot path.
    clock:
        Monotonic time source (``time.monotonic`` by default).  The
        budget starts counting at construction time.
    """

    __slots__ = ("total", "_clock", "_start")

    def __init__(
        self,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        if seconds is not None and seconds <= 0.0:
            raise ValueError("budget seconds must be positive (or None for unlimited)")
        self.total = None if seconds is None else float(seconds)
        self._clock = clock
        self._start = clock()

    @classmethod
    def from_ms(
        cls,
        deadline_ms: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> Optional["Budget"]:
        """A budget of *deadline_ms* milliseconds; ``None`` passes through.

        The ``None -> None`` mapping lets config plumbing write
        ``Budget.from_ms(cfg.deadline_ms)`` unconditionally.
        """
        if deadline_ms is None:
            return None
        return cls(deadline_ms / 1000.0, clock=clock)

    def elapsed(self) -> float:
        """Seconds consumed since construction."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited, floored at 0.0)."""
        if self.total is None:
            return float("inf")
        return max(0.0, self.total - self.elapsed())

    def fraction_remaining(self) -> float:
        """Remaining share of the allowance in [0, 1] (1.0 when unlimited).

        This is what :class:`~repro.resilience.degrade.DegradationPolicy`
        compares against its thresholds — relative, so one policy works
        for a 50 ms interactive budget and a 5 s batch budget alike.
        """
        if self.total is None:
            return 1.0
        return max(0.0, 1.0 - self.elapsed() / self.total)

    def expired(self) -> bool:
        """True once the allowance is used up.

        Each call reads the clock exactly once, so deterministic clocks
        (:class:`StepClock`) make expiry reproducible check-for-check.
        """
        if self.total is None:
            return False
        return self.elapsed() >= self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.total is None:
            return "Budget(unlimited)"
        return f"Budget(total={self.total:.6f}s, remaining={self.remaining():.6f}s)"
