"""Fault-injection acceptance suite for the hardened serving path.

Drives the :mod:`repro.resilience.chaos` harness through
:class:`~repro.service.pipeline.LocalizationService`: NaN lanes,
truncated value vectors, flaky and slow stages, and a tight deadline on a
10k-leaf case.  Every scenario must end in a well-formed
:class:`IncidentReport` (or a clean quiet interval) — never an exception.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.config import RAPMinerConfig
from repro.core.miner import RAPMiner
from repro.data.schema import schema_from_sizes
from repro.detection.detectors import DeviationThresholdDetector
from repro.detection.forecasting import SeasonalNaiveForecaster
from repro.obs.export import prometheus_text
from repro.resilience import DegradationPolicy, RetryPolicy
from repro.resilience.degrade import TIERS
from repro.resilience.chaos import (
    ChaosConfig,
    FlakyDetector,
    FlakyForecaster,
    SlowDetector,
    corrupt_values,
)
from repro.service.alarm import DeviationAlarm
from repro.service.pipeline import LocalizationService
from tests.conftest import make_labelled_dataset

N_WARMUP = 3


def build_service(schema_sizes=(6, 4, 4), **overrides):
    """A warmed-up service over a constant-traffic leaf population."""
    schema = schema_from_sizes(list(schema_sizes))
    base = make_labelled_dataset(schema, [])
    kwargs = dict(
        schema=schema,
        codes=base.codes,
        forecaster=SeasonalNaiveForecaster(period=1),
        detector=DeviationThresholdDetector(threshold=0.3),
        alarm=DeviationAlarm(threshold=0.05),
        history_capacity=8,
        min_history=N_WARMUP,
    )
    kwargs.update(overrides)
    service = LocalizationService(**kwargs)
    service.warm_up(np.tile(base.v, (N_WARMUP, 1)))
    return service, base


def crash_scope(service, values, element_code=0, factor=0.2):
    out = values.copy()
    out[service.codes[:, 0] == element_code] *= factor
    return out


class TestCorruptValues:
    def test_deterministic_under_seed(self):
        values = np.arange(100.0)
        config = ChaosConfig(seed=7, nan_fraction=0.1, truncate_fraction=0.05)
        first = corrupt_values(values, config, step=3)
        second = corrupt_values(values, config, step=3)
        np.testing.assert_array_equal(first, second)
        assert np.isnan(first).sum() == 10
        assert first.shape[0] == 95

    def test_different_steps_damage_different_lanes(self):
        values = np.arange(100.0)
        config = ChaosConfig(seed=7, nan_fraction=0.1)
        a = corrupt_values(values, config, step=0)
        b = corrupt_values(values, config, step=1)
        assert not np.array_equal(np.isnan(a), np.isnan(b))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(nan_fraction=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(truncate_fraction=1.0)


class TestMalformedInputs:
    def test_nan_lanes_never_manufacture_an_incident(self):
        service, base = build_service()
        damaged = corrupt_values(
            base.v, ChaosConfig(seed=1, nan_fraction=0.05), step=0
        )
        assert service.observe(damaged) is None  # on-trend after sanitizing
        assert service.malformed_inputs == 1
        # The sanitized row entered the history finite.
        assert np.isfinite(service.history.to_matrix()[-1]).all()

    def test_truncated_vector_is_padded(self):
        service, base = build_service()
        short = base.v[: base.v.shape[0] // 2]
        assert service.observe(short) is None
        assert service.malformed_inputs == 2  # length + the NaN padding
        assert np.isfinite(service.history.to_matrix()[-1]).all()

    def test_oversized_vector_is_truncated(self):
        service, base = build_service()
        long = np.concatenate([base.v, base.v[:5]])
        assert service.observe(long) is None
        assert service.history.to_matrix()[-1].shape[0] == base.v.shape[0]

    def test_clean_inputs_pass_through_untouched(self):
        service, base = build_service()
        values = base.v.copy()
        assert service.observe(values) is None
        np.testing.assert_array_equal(service.history.to_matrix()[-1], values)
        assert service.malformed_inputs == 0

    def test_damaged_incident_still_localizes(self):
        service, base = build_service()
        crashed = crash_scope(service, base.v)
        damaged = corrupt_values(
            crashed, ChaosConfig(seed=2, nan_fraction=0.02), step=1
        )
        report = service.observe(damaged)
        assert report is not None
        assert str(report.patterns[0]).startswith("(e0_0")
        assert report.degraded_stages == []


class TestFlakyStages:
    def fast_retry(self):
        return RetryPolicy(max_attempts=2, sleep=lambda _s: None)

    def test_flaky_forecaster_recovers_via_retry(self):
        inner = SeasonalNaiveForecaster(period=1)
        service, base = build_service(
            forecaster=FlakyForecaster(inner, fail_times=1), retry=self.fast_retry()
        )
        report = service.observe(crash_scope(service, base.v))
        assert report is not None
        assert report.degraded_stages == []  # retry succeeded, no fallback

    def test_dead_forecaster_falls_back_to_last_row(self):
        inner = SeasonalNaiveForecaster(period=1)
        service, base = build_service(
            forecaster=FlakyForecaster(inner, fail_times=10), retry=self.fast_retry()
        )
        report = service.observe(crash_scope(service, base.v))
        assert report is not None  # persistence forecast still alarms
        assert "forecast" in report.degraded_stages

    def test_dead_detector_falls_back_to_default(self):
        inner = DeviationThresholdDetector(threshold=0.3)
        service, base = build_service(
            detector=FlakyDetector(inner, fail_times=10), retry=self.fast_retry()
        )
        report = service.observe(crash_scope(service, base.v))
        assert report is not None
        assert "detect" in report.degraded_stages
        assert str(report.patterns[0]).startswith("(e0_0")

    def test_breaker_opens_after_repeated_interval_failures(self):
        inner = SeasonalNaiveForecaster(period=1)
        service, base = build_service(
            forecaster=FlakyForecaster(inner, fail_times=100),
            retry=self.fast_retry(),
        )
        for _ in range(3):
            service.observe(base.v)
        assert service.forecast_breaker.state == "open"
        # Open breaker: the stage is skipped outright, fallback still works.
        calls_before = service.forecaster.calls
        assert service.observe(base.v) is None
        assert service.forecaster.calls == calls_before

    def test_crashing_localizer_yields_escalation_report(self):
        class BrokenLocalizer:
            name = "broken"

            def localize(self, dataset, k=None):
                raise RuntimeError("injected localizer crash")

        service, base = build_service(localizer=BrokenLocalizer())
        report = service.observe(crash_scope(service, base.v))
        assert report is not None
        assert report.scopes == []
        assert report.stop_reason == "localizer_error"
        assert "localize" in report.degraded_stages
        assert "manual triage" in report.render()


class TestAcceptance:
    """The ISSUE's bar: injected faults + 50 ms deadline on a 10k-leaf case."""

    def test_faulted_deadline_run_returns_well_formed_report(self):
        inner_detector = DeviationThresholdDetector(threshold=0.3)
        service, base = build_service(
            schema_sizes=(10, 10, 10, 10),  # 10k leaves
            forecaster=FlakyForecaster(SeasonalNaiveForecaster(period=1), fail_times=2),
            detector=SlowDetector(inner_detector, delay_s=0.08),
            retry=RetryPolicy(max_attempts=2, sleep=lambda _s: None),
            deadline_ms=50.0,
            degradation=DegradationPolicy(),
            localizer=RAPMiner(),
        )
        crashed = crash_scope(service, base.v)
        damaged = corrupt_values(
            crashed, ChaosConfig(seed=5, nan_fraction=0.01, truncate_fraction=0.01),
            step=0,
        )
        with obs.capture() as collector:
            report = service.observe(damaged)
        assert report is not None
        # Budget drained by the slow detector before the search started:
        # the report is partial but structurally complete.
        assert report.stop_reason == "deadline"
        assert report.partial
        assert report.degradation_tier == "layer_capped"
        assert "forecast" in report.degraded_stages
        text = report.render()
        assert "INCIDENT" in text
        assert "partial" in text
        assert "degraded stages" in text
        # The whole story is on the Prometheus surface.
        exposition = prometheus_text(collector.metrics)
        assert "resilience_stop_reason_total" in exposition
        assert 'reason="deadline"' in exposition
        assert 'tier="layer_capped"' in exposition
        assert "resilience_malformed_inputs_total" in exposition
        assert "resilience_fallback_total" in exposition
        assert collector.metrics.value("resilience_degradation_tier") == TIERS.index(
            "layer_capped"
        )

    def test_clean_run_reports_stop_reason_and_no_degradation(self):
        # The bugfix satellite: stop_reason surfaces on clean reports too.
        service, base = build_service(localizer=RAPMiner())
        report = service.observe(crash_scope(service, base.v))
        assert report is not None
        assert report.stop_reason in ("coverage_early_stop", "lattice_exhausted")
        assert not report.partial
        assert report.degradation_tier is None
        assert report.degraded_stages == []
        assert "partial" not in report.render()

    def test_clean_run_candidates_match_direct_miner(self):
        # No faults, no deadline: the hardened pipeline must be
        # bit-identical to calling the miner on the labelled table.
        from repro.data.dataset import FineGrainedDataset

        service, base = build_service(localizer=RAPMiner())
        crashed = crash_scope(service, base.v)
        report = service.observe(crashed)
        forecast = base.v  # seasonal-naive(period=1) over a constant history
        table = FineGrainedDataset(base.schema, base.codes, crashed, forecast)
        labelled = table.with_labels(
            DeviationThresholdDetector(threshold=0.3).detect(crashed, forecast)
        )
        direct = RAPMiner().run(labelled, k=service.max_scopes)
        assert report.patterns == direct.patterns
