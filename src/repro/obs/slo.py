"""Declarative SLOs over sliding tick windows, with burn-rate gauges.

A long-running deployment (the service loop, a stream replay) judges its
own health against *objectives*: "at least 99% of ticks finish under
250 ms", "at most 0.1% of ticks end degraded or partial".  This module
turns those sentences into code:

* :class:`SLOObjective` — one declarative objective: a good-tick target
  fraction plus the predicate that classifies a tick (latency threshold,
  error flag, degradation flag — any combination).
* :class:`TickOutcome` — what one tick reports: wall seconds, error and
  degradation flags, the delta path taken (``patched``/``cold``) and the
  degradation-ladder tier.  The service pipeline and the stream replay
  driver both emit these.
* :class:`SLOTracker` — classifies every outcome against every objective
  over *multiple sliding windows* (tick counts, e.g. the last 60 and the
  last 720 ticks) and exports the ``slo_*`` gauge family, including the
  **error-budget burn rate** per window, into the active metric registry
  whenever that registry is read (a ``/metrics`` scrape) — never per tick.

Burn-rate semantics follow the multi-window convention: with a target
good fraction ``t`` the error budget is ``1 - t``; the burn rate of a
window is ``bad_fraction / (1 - t)`` — 1.0 means the deployment is
spending its budget exactly as fast as the objective allows, 14 means a
page-worthy fire.  Comparing a short against a long window separates a
transient blip (short high, long low) from a sustained breach (both
high).

Everything here is opt-in and free when off: no tracker exists unless
the caller constructs one, and gauge export is a no-op without an
installed collector.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from . import trace as _trace
from .metrics import MetricRegistry

__all__ = [
    "TickOutcome",
    "SLOObjective",
    "WindowState",
    "SLOTracker",
    "default_objectives",
]


@dataclass(frozen=True)
class TickOutcome:
    """One tick's observable outcome, as fed to :meth:`SLOTracker.record`."""

    #: Wall-clock seconds the tick took end to end.
    seconds: float
    #: The tick failed outright (localizer error, verify mismatch, ...).
    error: bool = False
    #: The tick was served degraded (fallback stage, partial report, ...).
    degraded: bool = False
    #: Degradation-ladder rung that served the tick (``None`` = full).
    tier: Optional[str] = None
    #: Delta-session path (``"patched"`` / ``"cold"``), when applicable.
    path: Optional[str] = None


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective: a target plus a good-tick predicate.

    Parameters
    ----------
    name:
        The ``objective`` label value on every exported ``slo_*`` series.
    target:
        Required good-tick fraction in ``(0, 1)``; the error budget is
        ``1 - target``.
    latency_threshold_s:
        When set, a tick is bad if ``seconds`` exceeds the threshold.
    count_errors:
        When true (default), a tick with ``error=True`` is bad.
    count_degraded:
        When true, a tick with ``degraded=True`` (or a non-``full``
        degradation tier) is bad — an availability-of-full-service
        objective.
    """

    name: str
    target: float = 0.99
    latency_threshold_s: Optional[float] = None
    count_errors: bool = True
    count_degraded: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.target < 1.0):
            raise ValueError("target must be a fraction in (0, 1)")
        if self.latency_threshold_s is not None and self.latency_threshold_s <= 0:
            raise ValueError("latency_threshold_s must be positive")

    @property
    def error_budget(self) -> float:
        """Allowed bad-tick fraction (``1 - target``)."""
        return 1.0 - self.target

    def is_good(self, outcome: TickOutcome) -> bool:
        """Classify one tick against this objective."""
        if self.count_errors and outcome.error:
            return False
        if self.count_degraded and (
            outcome.degraded or (outcome.tier not in (None, "full"))
        ):
            return False
        if (
            self.latency_threshold_s is not None
            and outcome.seconds > self.latency_threshold_s
        ):
            return False
        return True


def default_objectives() -> Tuple[SLOObjective, ...]:
    """The stock objectives a streaming deployment starts from.

    * ``tick_latency`` — 99% of ticks under 250 ms (tune the threshold to
      your measured cold-tick latency; see ``docs/operational.md``).
    * ``tick_success`` — 99.9% of ticks neither error nor run degraded.
    """
    return (
        SLOObjective(
            "tick_latency", target=0.99, latency_threshold_s=0.25, count_errors=False
        ),
        SLOObjective("tick_success", target=0.999, count_degraded=True),
    )


class WindowState:
    """Sliding bad-tick count over the last *size* ticks (O(1) update)."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("window size must be positive")
        self.size = size
        self._flags: Deque[bool] = deque(maxlen=size)
        self._bad = 0

    def push(self, good: bool) -> None:
        if len(self._flags) == self.size and not self._flags[0]:
            self._bad -= 1
        self._flags.append(good)
        if not good:
            self._bad += 1

    @property
    def n(self) -> int:
        return len(self._flags)

    @property
    def bad(self) -> int:
        return self._bad

    @property
    def bad_fraction(self) -> float:
        """Bad fraction of the ticks held so far (0.0 on an empty window)."""
        return self._bad / len(self._flags) if self._flags else 0.0


@dataclass
class _ObjectiveState:
    objective: SLOObjective
    windows: Dict[int, WindowState] = field(default_factory=dict)
    good_total: int = 0
    bad_total: int = 0


class SLOTracker:
    """Classify tick outcomes against objectives and export ``slo_*`` gauges.

    Parameters
    ----------
    objectives:
        The objectives to track (:func:`default_objectives` otherwise).
    windows:
        Sliding-window lengths in ticks, shortest first.  At the paper's
        60 s collection interval the default ``(60, 720)`` is one hour
        and twelve hours — the classic fast/slow burn-rate pair.

    Exported series (all labelled ``objective=<name>``; windowed ones
    also ``window=<ticks>``):

    * ``slo_objective_target`` — the configured target fraction.
    * ``slo_ticks_total{outcome="good"|"bad"}`` — classification counter.
    * ``slo_good_fraction`` — good fraction of the window.
    * ``slo_burn_rate`` — ``bad_fraction / error_budget`` of the window.
    * ``slo_error_budget_remaining`` — ``1 - burn_rate`` (negative =
      the window has overspent its budget).
    """

    def __init__(
        self,
        objectives: Optional[Sequence[SLOObjective]] = None,
        windows: Sequence[int] = (60, 720),
    ):
        resolved = tuple(objectives) if objectives is not None else default_objectives()
        if not resolved:
            raise ValueError("at least one objective is required")
        names = [o.name for o in resolved]
        if len(set(names)) != len(names):
            raise ValueError(f"objective names must be unique, got {names}")
        if not windows:
            raise ValueError("at least one window is required")
        self.windows: Tuple[int, ...] = tuple(sorted(int(w) for w in windows))
        self._states: Dict[str, _ObjectiveState] = {
            o.name: _ObjectiveState(
                o, {w: WindowState(w) for w in self.windows}
            )
            for o in resolved
        }
        self.ticks_recorded = 0
        self._export_lock = threading.Lock()

    @property
    def objectives(self) -> List[SLOObjective]:
        return [state.objective for state in self._states.values()]

    # -- feeding -----------------------------------------------------------

    def record(
        self, outcome: TickOutcome, registry: Optional[MetricRegistry] = None
    ) -> None:
        """Classify one tick.

        With *registry* given the ``slo_*`` family is exported there at
        once.  Otherwise the tracker registers itself as an exporter of
        the installed collector's registry (if any), which writes the
        family only when the registry is read — a served request pays
        for its window pushes, not for 18 gauge writes.  The windows
        update either way, so a tracker can run ahead of a capture and be
        scraped later.
        """
        self.ticks_recorded += 1
        for state in self._states.values():
            good = state.objective.is_good(outcome)
            if good:
                state.good_total += 1
            else:
                state.bad_total += 1
            for window in state.windows.values():
                window.push(good)
        if registry is not None:
            self.export(registry)
            return
        collector = _trace._collector
        if collector is not None:
            collector.metrics.add_exporter(self)

    # -- queries -----------------------------------------------------------

    def _state(self, objective: str) -> _ObjectiveState:
        try:
            return self._states[objective]
        except KeyError:
            raise KeyError(
                f"unknown objective {objective!r}; "
                f"tracking {sorted(self._states)}"
            ) from None

    def good_fraction(self, objective: str, window: int) -> float:
        state = self._state(objective)
        return 1.0 - state.windows[window].bad_fraction

    def burn_rate(self, objective: str, window: int) -> float:
        """Error-budget burn rate of one window (1.0 = spending at par)."""
        state = self._state(objective)
        return state.windows[window].bad_fraction / state.objective.error_budget

    def budget_remaining(self, objective: str, window: int) -> float:
        return 1.0 - self.burn_rate(objective, window)

    # -- export ------------------------------------------------------------

    def export(self, registry: MetricRegistry) -> None:
        """Write the full ``slo_*`` family into *registry*.

        Serialized, so two concurrent scrapes never both replay the same
        ``slo_ticks_total`` difference.
        """
        with self._export_lock:
            self._export(registry)

    def _export(self, registry: MetricRegistry) -> None:
        for name, state in self._states.items():
            labels = {"objective": name}
            registry.gauge("slo_objective_target", labels).set(state.objective.target)
            for outcome_label, total in (
                ("good", state.good_total),
                ("bad", state.bad_total),
            ):
                counter = registry.counter(
                    "slo_ticks_total", {"objective": name, "outcome": outcome_label}
                )
                behind = total - counter.value
                if behind > 0:  # counters only move up; replay the difference
                    counter.inc(behind)
            for size, window in state.windows.items():
                windowed = {"objective": name, "window": str(size)}
                burn = window.bad_fraction / state.objective.error_budget
                registry.gauge("slo_good_fraction", windowed).set(
                    1.0 - window.bad_fraction
                )
                registry.gauge("slo_burn_rate", windowed).set(burn)
                registry.gauge("slo_error_budget_remaining", windowed).set(1.0 - burn)

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready view of every objective (the ``/debug`` shape)."""
        rows: List[Dict[str, object]] = []
        for name, state in self._states.items():
            rows.append(
                {
                    "objective": name,
                    "target": state.objective.target,
                    "good_total": state.good_total,
                    "bad_total": state.bad_total,
                    "windows": {
                        str(size): {
                            "ticks": window.n,
                            "bad": window.bad,
                            "good_fraction": 1.0 - window.bad_fraction,
                            "burn_rate": window.bad_fraction
                            / state.objective.error_budget,
                        }
                        for size, window in state.windows.items()
                    },
                }
            )
        return rows
