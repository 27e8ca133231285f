"""Combined operational scenario: the service's delta session over a trace.

The closest thing to a staging-environment test: a two-day monitored
trace with a multi-interval regional outage and a later site failure,
driven through the full stack — seasonal forecasting, aggregate alarm,
leaf detection, localization on an engine carried across the alarmed
intervals — and scored with the temporal evaluation harness.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.attribute import AttributeCombination
from repro.core.config import RAPMinerConfig
from repro.core.miner import RAPMiner
from repro.data.cdn_simulator import CDNSimulator, CDNSimulatorConfig
from repro.data.schema import cdn_schema
from repro.data.trace import Incident, IncidentSchedule
from repro.detection.detectors import DeviationThresholdDetector
from repro.detection.forecasting import SeasonalNaiveForecaster
from repro.experiments.temporal import evaluate_service
from repro.service.alarm import DeviationAlarm
from repro.service.pipeline import LocalizationService

SAMPLE_EVERY = 30
PERIOD = 1440 // SAMPLE_EVERY


@pytest.fixture(scope="module")
def scenario():
    simulator = CDNSimulator(
        cdn_schema(8, 3, 3, 6), CDNSimulatorConfig(seed=131, noise_sigma=0.02)
    )
    codes = simulator.snapshot(0).codes
    values = simulator.snapshot(0).v
    # Pick high-volume scopes so the aggregate alarm fires.
    loc_shares = [values[codes[:, 0] == c].sum() for c in range(8)]
    site_shares = [values[codes[:, 3] == c].sum() for c in range(6)]
    location = f"L{int(np.argmax(loc_shares)) + 1}"
    site = simulator.schema.decode("website", int(np.argmax(site_shares)))

    outage = Incident(
        AttributeCombination.parse(f"({location}, *, *, *)"),
        start=6, end=12, retain_fraction=0.1,
    )
    site_failure = Incident(
        AttributeCombination.parse(f"(*, *, *, {site})"),
        start=30, end=33, retain_fraction=0.25,
    )
    schedule = IncidentSchedule([outage, site_failure])

    service = LocalizationService(
        schema=simulator.schema,
        codes=codes,
        forecaster=SeasonalNaiveForecaster(period=PERIOD),
        detector=DeviationThresholdDetector(threshold=0.3),
        alarm=DeviationAlarm(threshold=0.04),
        localizer=RAPMiner(RAPMinerConfig()),
        history_capacity=PERIOD,
        min_history=PERIOD,
    )
    warmup = np.stack(
        [simulator.snapshot(step).v for step in range(0, 1440, SAMPLE_EVERY)]
    )
    service.warm_up(warmup)
    with obs.capture() as collector:
        evaluation = evaluate_service(
            service, simulator, schedule, n_steps=PERIOD,
            sample_every=SAMPLE_EVERY, start_minute=1440,
        )
    return evaluation, collector.metrics, (outage, site_failure)


class TestOperationalScenario:
    def test_both_incidents_detected_at_onset(self, scenario):
        evaluation, __, __ = scenario
        assert evaluation.detection_rate == 1.0
        assert evaluation.mean_detection_delay == 0.0

    def test_no_false_alarms(self, scenario):
        evaluation, __, __ = scenario
        assert evaluation.false_alarm_steps == []

    def test_every_alarmed_interval_localized_exactly(self, scenario):
        evaluation, __, __ = scenario
        assert evaluation.localization_accuracy(k=3) == 1.0

    def test_alarm_raised_for_every_incident_interval(self, scenario):
        evaluation, __, (outage, site_failure) = scenario
        alarmed = set(evaluation.reports)
        for incident in (outage, site_failure):
            for step in range(incident.start, incident.end + 1):
                assert step in alarmed, step

    def test_warm_start_carried_the_long_outage(self, scenario):
        """One engine is built from scratch; every later alarmed interval
        reuses the previous one's (every leaf's value moves each interval,
        so the session warm-clones rather than patches)."""
        __, metrics, (outage, __) = scenario
        outage_intervals = outage.end - outage.start + 1
        first = {"path": "cold", "reason": "first_tick"}
        assert metrics.value("delta_ticks_total", first) == 1.0
        ticks = metrics.family_total("delta_ticks_total")
        assert ticks >= outage_intervals
        assert metrics.value("engine_warm_clones_total") == ticks - 1

    def test_reports_carry_impact(self, scenario):
        evaluation, __, (outage, __) = scenario
        report = evaluation.reports[outage.start]
        scope = report.scopes[0]
        assert scope.pattern == outage.pattern
        assert scope.drop_fraction > 0.7
