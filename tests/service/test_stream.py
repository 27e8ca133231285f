"""Tests for the stream replay driver and the service's delta composition."""

import numpy as np
import pytest

from repro.core.attribute import AttributeCombination
from repro.core.config import RAPMinerConfig
from repro.core.delta import DeltaConfig
from repro.core.delta import StreamingRAPMiner
from repro.data.cdn_simulator import CDNSimulator, CDNSimulatorConfig
from repro.data.injection import LocalizationCase, inject_failures, sample_raps
from repro.data.schema import cdn_schema
from repro.service import LocalizationService, replay_stream
from repro.service.stream import StreamReplay, TickRecord

CONFIG = RAPMinerConfig(enable_attribute_deletion=False)
PINNED = DeltaConfig(crossover=0.5)  # timing-independent path choice


@pytest.fixture
def incident_ticks():
    """Five consecutive labelled intervals of one persisted 2-RAP incident."""
    sim = CDNSimulator(cdn_schema(6, 3, 3, 5), CDNSimulatorConfig(seed=31))
    rng = np.random.default_rng(31)
    background = sim.snapshot(100).to_dataset()
    raps = sample_raps(background, 2, rng, min_support=6)
    ticks = []
    for step in range(5):
        snapshot = sim.snapshot(100 + step).to_dataset()
        labelled, __ = inject_failures(snapshot, raps, rng)
        ticks.append(labelled)
    return raps, ticks


class TestReplayStream:
    def test_replays_every_tick_through_one_session(self, incident_ticks):
        __, ticks = incident_ticks
        replay = replay_stream(
            ticks, miner=StreamingRAPMiner(CONFIG, delta=PINNED)
        )
        assert len(replay.ticks) == len(ticks)
        assert replay.ticks[0].path == "cold"
        assert replay.ticks[0].reason == "first_tick"
        assert replay.patched_ticks + replay.cold_ticks == len(ticks)
        assert replay.total_seconds > 0.0
        assert replay.amortized_seconds == pytest.approx(
            replay.total_seconds / len(ticks)
        )

    def test_verify_mode_confirms_bit_identical_candidates(self, incident_ticks):
        __, ticks = incident_ticks
        replay = replay_stream(
            ticks, miner=StreamingRAPMiner(CONFIG, delta=PINNED), verify=True
        )
        assert all(t.verified is True for t in replay.ticks)
        assert replay.mismatches == []

    def test_cases_replay_in_order_with_truth_hits(self, incident_ticks):
        raps, ticks = incident_ticks
        cases = [
            LocalizationCase(case_id=f"t{i}", dataset=d, true_raps=list(raps))
            for i, d in enumerate(ticks)
        ]
        replay = replay_stream(
            cases, miner=StreamingRAPMiner(CONFIG, delta=PINNED)
        )
        assert [t.case_id for t in replay.ticks] == [c.case_id for c in cases]
        # k defaults to the truth size; the persisted incident is found.
        assert all(t.hits == len(raps) for t in replay.ticks)

    def test_empty_stream(self):
        replay = replay_stream([])
        assert replay.ticks == []
        assert replay.amortized_seconds == 0.0

    def test_mismatches_lists_failed_ticks(self):
        replay = StreamReplay(
            ticks=[
                TickRecord(0, None, "cold", None, 1.0, 0.1, None, [], verified=True),
                TickRecord(1, None, "patched", None, 0.1, 0.1, None, [], verified=False),
            ]
        )
        assert replay.mismatches == [1]


SAMPLE_EVERY = 30
PERIOD = 1440 // SAMPLE_EVERY


def make_service(simulator, **kwargs):
    svc = LocalizationService(
        schema=simulator.schema,
        codes=simulator.snapshot(0).codes,
        history_capacity=PERIOD,
        min_history=PERIOD,
        **kwargs,
    )
    day = np.stack(
        [simulator.snapshot(step).v for step in range(0, 1440, SAMPLE_EVERY)]
    )
    svc.warm_up(day)
    return svc


@pytest.fixture
def simulator():
    return CDNSimulator(
        cdn_schema(6, 2, 2, 5), CDNSimulatorConfig(seed=5, noise_sigma=0.02)
    )


def crash_location(values, codes, location_code, factor=0.2):
    out = values.copy()
    out[codes[:, 0] == location_code] *= factor
    return out


class TestServiceDeltaComposition:
    def test_delta_session_on_by_default(self, simulator):
        svc = make_service(simulator)
        assert svc.delta_session is not None

    def test_delta_off_when_disabled(self, simulator):
        svc = make_service(simulator, delta=False)
        assert svc.delta_session is None

    def test_repeated_incident_reports_match_delta_off(self):
        # One fresh same-seed simulator per service: snapshot noise is
        # draw-order-dependent, so a shared instance would hand the two
        # services different warm-up histories.
        def fresh_sim():
            return CDNSimulator(
                cdn_schema(6, 2, 2, 5), CDNSimulatorConfig(seed=5, noise_sigma=0.02)
            )

        with_delta = make_service(fresh_sim(), delta_config=PINNED)
        without = make_service(fresh_sim(), delta=False)
        value_sim = fresh_sim()
        for step in range(1440, 1440 + 4 * SAMPLE_EVERY, SAMPLE_EVERY):
            values = crash_location(
                value_sim.snapshot(step).v, with_delta.codes, 2
            )
            a = with_delta.observe(values)
            b = without.observe(values)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.patterns == b.patterns
                assert a.scopes == b.scopes
        assert with_delta.delta_session.stats.ticks >= 2

    def test_expired_deadline_still_returns_wellformed_report(self, simulator):
        svc = make_service(simulator, deadline_ms=1e-6, delta_config=PINNED)
        values = crash_location(simulator.snapshot(1440).v, svc.codes, 2)
        report = svc.observe(values)
        assert report is not None
        assert isinstance(report.scopes, list)
        assert report.render()  # renders without blowing up
        # The delta tier degraded rather than the interval being dropped.
        assert report.stop_reason == "deadline" or report.degradation_tier is not None


def test_custom_localizer_bypasses_delta(simulator_factory=None):
    sim = CDNSimulator(cdn_schema(6, 2, 2, 5), CDNSimulatorConfig(seed=5))

    class StubLocalizer:
        name = "stub"

        def localize(self, dataset, k=None):
            return [AttributeCombination.parse("(L1, *, *, *)")]

    svc = LocalizationService(
        schema=sim.schema,
        codes=sim.snapshot(0).codes,
        localizer=StubLocalizer(),
        min_history=1,
        history_capacity=PERIOD,
    )
    svc.warm_up(sim.snapshot(0).v[None, :])
    report = svc.observe(sim.snapshot(30).v * 0.5)
    assert report is not None
    # The stub takes no engine kwarg, so the session never saw a tick.
    assert svc.delta_session is not None
    assert svc.delta_session.stats.ticks == 0
