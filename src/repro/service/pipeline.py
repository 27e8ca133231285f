"""The online localization service: forecast -> alarm -> detect -> localize.

Wires the repository's pieces into the operational loop of the paper's
Fig. 1.  At every collection interval the service receives the actual
per-leaf KPI vector; it forecasts from the rolling history, checks the
overall-KPI alarm, and — only when the alarm fires — labels the leaf table
with the detector and runs the localizer, emitting an
:class:`IncidentReport` with the affected scopes an operator can act on.

The localizer is pluggable (:class:`~repro.core.miner.RAPMiner` by
default, any :class:`~repro.baselines.base.Localizer` works), as are the
forecaster, detector, and alarm.

Under an installed :mod:`repro.obs` collector every observed interval
opens a ``service.interval`` span with per-stage children (forecast ->
alarm -> detect -> localize -> impact), forming the per-incident audit
trail rendered by :func:`repro.obs.report.incident_timeline`.

The serving path is hardened (see ``docs/resilience.md``): malformed
inputs (NaN lanes, truncated value vectors) are sanitized and counted,
forecaster/detector calls run behind retry + circuit breakers with
deterministic fallbacks, and an optional per-interval deadline budget is
threaded through the localizer so an over-budget search returns a
partial-but-valid :class:`IncidentReport` (``stop_reason="deadline"``)
instead of hanging the loop.  With clean inputs and no deadline the
pipeline is bit-identical to the unhardened one.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.attribute import AttributeCombination, AttributeSchema
from ..obs import trace as _trace
from ..core.delta import DeltaConfig, DeltaSession
from ..core.engine import engine_for
from ..core.miner import RAPMiner
from ..data.dataset import FineGrainedDataset
from ..detection.detectors import Detector, DeviationThresholdDetector
from ..detection.forecasting import Forecaster, SeasonalNaiveForecaster
from ..resilience.breaker import CircuitBreaker, RetryPolicy, guarded_call
from ..resilience.budget import Budget
from ..resilience.degrade import TIERS, DegradationPolicy
from .alarm import Alarm, DeviationAlarm
from .history import RollingHistory

__all__ = ["ScopeImpact", "IncidentReport", "LocalizationService"]


@dataclass(frozen=True)
class ScopeImpact:
    """One localized scope with its measured impact."""

    pattern: AttributeCombination
    actual: float
    forecast: float
    anomalous_leaves: int
    total_leaves: int

    @property
    def drop_fraction(self) -> float:
        """Relative KPI shortfall of the scope (positive = below forecast).

        When the forecast is zero the ratio is undefined; the convention
        is ``-math.inf`` for a scope that carried traffic anyway
        (infinitely above its zero baseline, keeping the sign of the
        finite case) and ``0.0`` only when actual and forecast are both
        zero (a genuinely dead scope).
        """
        if self.forecast == 0.0:
            return -math.inf if self.actual > 0.0 else 0.0
        return (self.forecast - self.actual) / self.forecast


@dataclass
class IncidentReport:
    """Everything the service learned about one alarmed step."""

    step: int
    total_actual: float
    total_forecast: float
    anomalous_leaves: int
    scopes: List[ScopeImpact] = field(default_factory=list)
    #: Why the localizer's search ended (``coverage_early_stop``,
    #: ``lattice_exhausted``, ``max_layer_reached``, ``no_anomalous_leaves``
    #: or ``deadline``); ``None`` for localizers without search stats.
    stop_reason: Optional[str] = None
    #: Degradation-ladder rung that produced the scopes (``None`` when no
    #: :class:`~repro.resilience.DegradationPolicy` was active).
    degradation_tier: Optional[str] = None
    #: Pipeline stages that fell back to a degraded implementation this
    #: interval (``"forecast"``, ``"detect"``, ``"localize"``), in order.
    degraded_stages: List[str] = field(default_factory=list)

    @property
    def patterns(self) -> List[AttributeCombination]:
        return [scope.pattern for scope in self.scopes]

    @property
    def partial(self) -> bool:
        """True when the deadline budget cut the search short."""
        return self.stop_reason == "deadline"

    def render(self) -> str:
        """Human-readable incident summary."""
        lines = [
            f"INCIDENT at step {self.step}: "
            f"total {self.total_actual:,.0f} vs expected {self.total_forecast:,.0f}, "
            f"{self.anomalous_leaves} anomalous leaf KPIs",
        ]
        if self.partial:
            lines.append(
                "  (partial: deadline budget exhausted — scopes cover the "
                "layers searched so far)"
            )
        if self.degraded_stages:
            lines.append(
                f"  (degraded stages: {', '.join(self.degraded_stages)})"
            )
        for rank, scope in enumerate(self.scopes, start=1):
            drop = scope.drop_fraction
            impact = (
                f"{drop * 100:.0f}% down"
                if math.isfinite(drop)
                else "above zero forecast"
            )
            lines.append(
                f"  {rank}. {scope.pattern}  "
                f"{impact} "
                f"({scope.anomalous_leaves}/{scope.total_leaves} leaves anomalous)"
            )
        if not self.scopes:
            lines.append("  (no scope localized — escalate to manual triage)")
        return "\n".join(lines)


class LocalizationService:
    """Stateful per-interval monitor emitting incident reports.

    Parameters
    ----------
    schema, codes:
        The fixed leaf population being monitored (one row of ``codes``
        per leaf, matching every ``observe`` call's value vector).
    forecaster / detector / alarm / localizer:
        Pluggable pipeline stages; paper-faithful defaults.
    history_capacity:
        Ring-buffer length; must cover the forecaster's needs (one season
        for the default seasonal-naive forecaster).
    min_history:
        Observations required before the service starts judging steps.
    max_scopes:
        Upper bound on reported scopes per incident.
    deadline_ms:
        Wall-clock allowance per observed interval (``None`` =
        unlimited).  The budget starts when :meth:`observe` is entered
        and is threaded through the localizer, so a slow detector leaves
        less time for the search; expiry yields a partial report with
        ``stop_reason="deadline"``.
    degradation:
        Optional :class:`~repro.resilience.DegradationPolicy` forwarded
        to localizers that accept one; the chosen rung lands on
        ``IncidentReport.degradation_tier``.
    delta / delta_config:
        Streaming aggregation across alarmed intervals.  By default the
        service holds a :class:`~repro.core.delta.DeltaSession`: each
        alarmed tick's labelled table is diffed against the previous
        one, and when the changed-leaf fraction is below the (measured)
        crossover the cached cuboid aggregates are patched in place
        instead of re-aggregated cold — candidates stay bit-identical
        either way.  The session is only engaged for localizers whose
        ``run`` accepts an ``engine`` (the default
        :class:`~repro.core.miner.RAPMiner` does); pass ``delta=False``
        to force cold aggregation every interval.
    retry:
        Retry/backoff policy for the forecaster and detector calls
        (default: one retry, 50 ms backoff).
    slo:
        Optional :class:`~repro.obs.slo.SLOTracker` fed one
        :class:`~repro.obs.slo.TickOutcome` per observed interval
        (latency, degraded stages, partial reports, degradation tier),
        exporting the ``slo_*`` burn-rate gauges into the active
        registry.  ``None`` (default) costs nothing.
    forecast_breaker / detect_breaker:
        Circuit breakers guarding the pluggable stages.  When a stage
        exhausts its retries (or its breaker is open) the service falls
        back deterministically — last-history-row forecast, default
        :class:`~repro.detection.detectors.DeviationThresholdDetector` —
        and records the stage in ``IncidentReport.degraded_stages``.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        codes: np.ndarray,
        forecaster: Optional[Forecaster] = None,
        detector: Optional[Detector] = None,
        alarm: Optional[Alarm] = None,
        localizer=None,
        history_capacity: int = 1440,
        min_history: int = 10,
        max_scopes: int = 5,
        deadline_ms: Optional[float] = None,
        degradation: Optional[DegradationPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        forecast_breaker: Optional[CircuitBreaker] = None,
        detect_breaker: Optional[CircuitBreaker] = None,
        delta: bool = True,
        delta_config: Optional[DeltaConfig] = None,
        slo=None,
    ):
        self.schema = schema
        self.codes = np.ascontiguousarray(codes, dtype=np.int64)
        self.forecaster = forecaster if forecaster is not None else SeasonalNaiveForecaster()
        self.detector = detector if detector is not None else DeviationThresholdDetector()
        self.alarm = alarm if alarm is not None else DeviationAlarm()
        self.localizer = localizer if localizer is not None else RAPMiner()
        if min_history < 1:
            raise ValueError("min_history must be positive")
        if deadline_ms is not None and deadline_ms <= 0.0:
            raise ValueError("deadline_ms must be positive (or None for unlimited)")
        self.min_history = min_history
        self.max_scopes = max_scopes
        self.deadline_ms = deadline_ms
        self.degradation = degradation
        #: Cross-interval delta aggregation state (``None`` = always cold).
        self.delta_session = DeltaSession(delta_config) if delta else None
        self.retry = retry if retry is not None else RetryPolicy()
        self.forecast_breaker = (
            forecast_breaker
            if forecast_breaker is not None
            else CircuitBreaker(name="forecast")
        )
        self.detect_breaker = (
            detect_breaker if detect_breaker is not None else CircuitBreaker(name="detect")
        )
        #: Deterministic stand-in detector used when the pluggable one is
        #: down; deviation-threshold is the paper's implied default.
        self.fallback_detector = DeviationThresholdDetector()
        #: Optional SLO tracker fed once per observed interval.
        self.slo = slo
        self.history = RollingHistory(self.codes.shape[0], history_capacity)
        self._step = 0
        #: Count of observed steps that raised an incident.
        self.incidents_raised = 0
        #: Count of sanitized inputs (NaN lanes, wrong-length vectors).
        self.malformed_inputs = 0

    @property
    def current_step(self) -> int:
        return self._step

    def warm_up(self, values_matrix: np.ndarray) -> None:
        """Preload history rows (no alarm evaluation), oldest first."""
        for row in np.asarray(values_matrix, dtype=float):
            self.history.append(row)
            self._step += 1

    def observe(self, values: np.ndarray) -> Optional[IncidentReport]:
        """Process one collection interval; returns a report when alarmed.

        The observed values are appended to the history *after* judging the
        step, so the forecast never sees the value it is predicting.

        Malformed inputs never abort the interval: a wrong-length vector
        is padded/truncated to the leaf population and NaN/Inf lanes are
        replaced by their forecast (neutral — never spuriously anomalous),
        both counted under ``resilience_malformed_inputs_total``.  Clean
        inputs pass through untouched, bit for bit.
        """
        started = time.perf_counter()
        budget = Budget.from_ms(self.deadline_ms)
        values = self._coerce_length(np.asarray(values, dtype=float).ravel())
        step = self._step
        report: Optional[IncidentReport] = None
        degraded_stages: List[str] = []
        with obs.span("service.interval", step=step) as interval_span:
            if len(self.history) >= self.min_history:
                with obs.span("service.forecast"):
                    forecast = self._forecast(degraded_stages)
                values = self._sanitize_lanes(values, forecast)
                with obs.span("service.alarm") as alarm_span:
                    triggered = self.alarm.should_trigger(
                        float(values.sum()), float(forecast.sum())
                    )
                    alarm_span.set(triggered=triggered)
                if triggered:
                    report = self._localize(
                        step, values, forecast, budget, degraded_stages
                    )
                    self.incidents_raised += 1
            else:
                values = self._sanitize_lanes(values, forecast=None)
            interval_span.set(alarmed=report is not None)
            if _trace.ACTIVE:
                obs.inc("service_intervals_total")
                if report is not None:
                    obs.inc("service_incidents_total")
                self.export_state_gauges(report)
        self.history.append(values)
        self._step += 1
        if self.slo is not None:
            from ..obs.slo import TickOutcome

            self.slo.record(
                TickOutcome(
                    seconds=time.perf_counter() - started,
                    error=report is not None and report.stop_reason == "localizer_error",
                    degraded=bool(degraded_stages)
                    or (report is not None and report.partial),
                    tier=report.degradation_tier if report is not None else None,
                )
            )
        return report

    # -- live-telemetry surface ------------------------------------------------

    def export_state_gauges(self, report: Optional[IncidentReport] = None) -> None:
        """Publish breaker and degradation state as gauges for live scrapes.

        Called once per observed interval when a collector is installed;
        a scrape therefore always sees the *current* breaker states, not
        just whichever transitions happened to fire since capture start.
        ``resilience_degradation_tier`` encodes the latest report's rung
        as its index into :data:`~repro.resilience.degrade.TIERS`
        (``-1`` = no degradation policy consulted).
        """
        self.forecast_breaker.export_state_gauge()
        self.detect_breaker.export_state_gauge()
        if report is not None:
            tier = report.degradation_tier
            obs.set_gauge(
                "resilience_degradation_tier",
                TIERS.index(tier) if tier in TIERS else -1,
            )

    def readiness(self) -> dict:
        """The ``/readyz`` probe body for a telemetry server.

        Ready means the service can judge the next interval at full
        fidelity: enough history for the forecaster, and neither pluggable
        stage's circuit breaker open.
        """
        breakers = {
            self.forecast_breaker.name: self.forecast_breaker.state,
            self.detect_breaker.name: self.detect_breaker.state,
        }
        warmed = len(self.history) >= self.min_history
        open_breakers = sorted(n for n, s in breakers.items() if s == "open")
        ready = warmed and not open_breakers
        reason = None
        if not warmed:
            reason = f"history {len(self.history)}/{self.min_history}"
        elif open_breakers:
            reason = f"open breakers: {', '.join(open_breakers)}"
        return {
            "ready": ready,
            "reason": reason,
            "step": self._step,
            "breakers": breakers,
            "incidents_raised": self.incidents_raised,
        }

    def telemetry_server(self, host: str = "127.0.0.1", port: int = 0):
        """A :class:`~repro.obs.server.TelemetryServer` wired to this service.

        The server's ``/readyz`` reflects :meth:`readiness` (history
        warm-up and breaker state); start/stop it around the serving loop::

            with service.telemetry_server(port=9464) as server:
                for values in feed:
                    service.observe(values)
        """
        from ..obs.server import TelemetryServer

        return TelemetryServer(host=host, port=port, readiness=self.readiness)

    # -- input hygiene ---------------------------------------------------------

    def _coerce_length(self, values: np.ndarray) -> np.ndarray:
        """Pad (with NaN, sanitized later) or truncate to the leaf count."""
        n_leaves = self.codes.shape[0]
        if values.shape[0] == n_leaves:
            return values
        self.malformed_inputs += 1
        obs.inc("resilience_malformed_inputs_total", kind="length")
        if values.shape[0] > n_leaves:
            return values[:n_leaves]
        padded = np.full(n_leaves, np.nan)
        padded[: values.shape[0]] = values
        return padded

    def _sanitize_lanes(
        self, values: np.ndarray, forecast: Optional[np.ndarray]
    ) -> np.ndarray:
        """Replace non-finite lanes with their expected value.

        With a forecast available the replacement is the forecast lane
        (the lane looks exactly on-trend, so a collection gap never
        manufactures an anomaly); before the warm-up it is the last
        history row, or 0.0 on a cold start.  Finite inputs are returned
        unchanged — not copied — so the clean path stays bit-identical.
        """
        bad = ~np.isfinite(values)
        if not bad.any():
            return values
        self.malformed_inputs += 1
        obs.inc("resilience_malformed_inputs_total", int(bad.sum()), kind="nan")
        values = values.copy()
        if forecast is not None:
            values[bad] = forecast[bad]
        elif len(self.history):
            values[bad] = self.history.to_matrix()[-1][bad]
        else:
            values[bad] = 0.0
        return values

    # -- guarded pluggable stages ----------------------------------------------

    def _forecast(self, degraded_stages: List[str]) -> np.ndarray:
        """The pluggable forecaster behind retry + breaker, with fallback.

        When the forecaster is down (retries exhausted or breaker open)
        the service degrades to the last history row — the naive
        persistence forecast — rather than skipping the interval.
        """
        history_matrix = self.history.to_matrix()
        forecast, error = guarded_call(
            self.forecaster.forecast,
            history_matrix,
            retry=self.retry,
            breaker=self.forecast_breaker,
            stage="forecast",
        )
        if error is None:
            forecast = np.asarray(forecast, dtype=float)
            if forecast.shape[0] == self.codes.shape[0] and np.isfinite(forecast).all():
                return forecast
            obs.inc("resilience_malformed_inputs_total", kind="forecast")
        degraded_stages.append("forecast")
        obs.inc("resilience_fallback_total", stage="forecast")
        return history_matrix[-1].copy()

    def _detect(
        self, values: np.ndarray, forecast: np.ndarray, degraded_stages: List[str]
    ) -> np.ndarray:
        """The pluggable detector behind retry + breaker, with fallback."""
        labels, error = guarded_call(
            self.detector.detect,
            values,
            forecast,
            retry=self.retry,
            breaker=self.detect_breaker,
            stage="detect",
        )
        if error is None:
            return np.asarray(labels, dtype=bool)
        degraded_stages.append("detect")
        obs.inc("resilience_fallback_total", stage="detect")
        return np.asarray(self.fallback_detector.detect(values, forecast), dtype=bool)

    def _run_localizer(
        self, labelled: FineGrainedDataset, budget: Optional[Budget]
    ) -> Tuple[List[AttributeCombination], Optional[str], Optional[str]]:
        """``(patterns, stop_reason, degradation_tier)`` from the localizer.

        Localizers exposing a ``run`` method (RAPMiner, the streaming
        miner) are invoked through it so search stats surface on the
        report; the budget/degradation kwargs are passed only when the
        signature accepts them, keeping any ``Localizer`` pluggable.

        When the service holds a delta session and the localizer's
        ``run`` accepts an ``engine``, the interval's engine comes from
        :meth:`DeltaSession.begin_tick` — patched from the previous
        alarmed interval when the churn is low, cold otherwise.
        Localizers that manage their own engines (the streaming miner)
        simply do not take the kwarg and bypass the session entirely.
        """
        runner = getattr(self.localizer, "run", None)
        if callable(runner):
            kwargs = {}
            try:
                parameters = inspect.signature(runner).parameters
            except (TypeError, ValueError):  # pragma: no cover - exotic callables
                parameters = {}
            tick = None
            started = time.perf_counter()
            if self.delta_session is not None and "engine" in parameters:
                tick = self.delta_session.begin_tick(
                    labelled, budget=budget, policy=self.degradation
                )
                kwargs["engine"] = tick.engine
                if tick.decision is not None and "_decision" in parameters:
                    kwargs["_decision"] = tick.decision
            if budget is not None and "budget" in parameters:
                kwargs["budget"] = budget
            if self.degradation is not None and "degradation" in parameters:
                kwargs["degradation"] = self.degradation
            result = runner(labelled, k=self.max_scopes, **kwargs)
            if tick is not None:
                self.delta_session.record_tick_seconds(
                    tick, time.perf_counter() - started
                )
            stats = getattr(result, "stats", None)
            return (
                list(result.patterns),
                getattr(stats, "stop_reason", None),
                getattr(stats, "degradation_tier", None),
            )
        return list(self.localizer.localize(labelled, k=self.max_scopes)), None, None

    def _localize(
        self,
        step: int,
        values: np.ndarray,
        forecast: np.ndarray,
        budget: Optional[Budget] = None,
        degraded_stages: Optional[List[str]] = None,
    ) -> IncidentReport:
        degraded_stages = degraded_stages if degraded_stages is not None else []
        with obs.span("service.detect") as detect_span:
            table = FineGrainedDataset(self.schema, self.codes, values, forecast)
            labelled = table.with_labels(self._detect(values, forecast, degraded_stages))
            detect_span.set(anomalous_leaves=labelled.n_anomalous)
        with obs.span("service.localize") as localize_span:
            outcome, error = guarded_call(
                self._run_localizer,
                labelled,
                budget,
                retry=RetryPolicy(max_attempts=1),
                stage="localize",
            )
            if error is None:
                patterns, stop_reason, degradation_tier = outcome
            else:
                # A crashed localizer still yields a well-formed (empty)
                # report; the render() escalation line tells the operator.
                patterns, stop_reason, degradation_tier = [], "localizer_error", None
                degraded_stages.append("localize")
                obs.inc("resilience_fallback_total", stage="localize")
            localize_span.set(n_patterns=len(patterns))
            obs.inc(
                "resilience_stop_reason_total",
                reason=stop_reason or "none",
                tier=degradation_tier or "none",
            )
        with obs.span("service.impact") as impact_span:
            # Same shared engine the localizer used for this interval, so the
            # impact roll-up reuses its posting lists instead of fresh masks.
            engine = engine_for(labelled)
            scopes = []
            for pattern in patterns:
                rows = engine.rows_of(pattern)
                scopes.append(
                    ScopeImpact(
                        pattern=pattern,
                        actual=float(values[rows].sum()),
                        forecast=float(forecast[rows].sum()),
                        anomalous_leaves=int(labelled.labels[rows].sum()),
                        total_leaves=int(rows.size),
                    )
                )
            impact_span.set(n_scopes=len(scopes))
        return IncidentReport(
            step=step,
            total_actual=float(values.sum()),
            total_forecast=float(forecast.sum()),
            anomalous_leaves=labelled.n_anomalous,
            scopes=scopes,
            stop_reason=stop_reason,
            degradation_tier=degradation_tier,
            degraded_stages=list(degraded_stages),
        )
