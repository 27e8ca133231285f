"""Tests for the streaming delta session (patch-in-place aggregation)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.config import RAPMinerConfig
from repro.core.delta import DeltaConfig, DeltaSession, StreamingRAPMiner
from repro.core.miner import RAPMiner
from repro.data.dataset import FineGrainedDataset
from repro.data.schema import schema_from_sizes
from repro.resilience import Budget, DegradationPolicy, StepClock
from tests.conftest import make_labelled_dataset

CONFIG = RAPMinerConfig(enable_attribute_deletion=False)


def make_ticks(schema, patterns, n_ticks, seed=0):
    """Consecutive ticks of one incident: only anomalous rows churn.

    The leaf population (codes, v) is fixed; each tick redraws the
    forecast of the rows under *patterns*, so the changed-row set is
    exactly the anomalous set and its fraction stays well below the
    default auto crossover.
    """
    base = make_labelled_dataset(schema, patterns, seed=seed)
    rng = np.random.default_rng(seed + 1)
    mask = base.labels
    ticks = []
    for _ in range(n_ticks):
        f = base.f.copy()
        f[mask] = base.v[mask] / rng.uniform(0.55, 0.65, int(mask.sum()))
        ticks.append(FineGrainedDataset(schema, base.codes, base.v, f, mask.copy()))
    return ticks


def stateless_candidates(dataset, config=CONFIG):
    """Reference run on a rebuilt dataset: fresh engine, no shared caches."""
    rebuilt = FineGrainedDataset(
        dataset.schema, dataset.codes.copy(), dataset.v, dataset.f, dataset.labels
    )
    return RAPMiner(config).run(rebuilt).candidates


def assert_bit_identical(candidates, reference):
    assert len(candidates) == len(reference)
    for got, want in zip(candidates, reference):
        assert got.combination == want.combination
        assert got.confidence == want.confidence  # bitwise: same float
        assert got.support == want.support
        assert got.anomalous_support == want.anomalous_support


@pytest.fixture
def schema():
    return schema_from_sizes([6, 3, 3])


@pytest.fixture
def ticks(schema):
    return make_ticks(schema, ["(e0_0, *, *)"], 6)


class TestTickPaths:
    def test_first_tick_is_cold(self, ticks):
        session = DeltaSession()
        tick = session.begin_tick(ticks[0])
        assert tick.path == "cold"
        assert tick.reason == "first_tick"
        assert session.stats.cold_ticks == 1

    def test_low_churn_ticks_patch(self, ticks):
        session = DeltaSession()
        miner = RAPMiner(CONFIG)
        for tick_data in ticks:
            tick = session.begin_tick(tick_data)
            miner.run(tick_data, engine=tick.engine)
        assert session.stats.patched_ticks == len(ticks) - 1
        assert session.stats.last_path == "patched"
        assert session.stats.changed_rows > 0

    def test_identical_tick_shares_cached_aggregates(self, ticks):
        session = DeltaSession()
        miner = RAPMiner(CONFIG)
        first = session.begin_tick(ticks[0])
        miner.run(ticks[0], engine=first.engine)
        twin = FineGrainedDataset(
            ticks[0].schema, ticks[0].codes, ticks[0].v, ticks[0].f, ticks[0].labels
        )
        tick = session.begin_tick(twin)
        assert tick.path == "patched"
        assert tick.changed_rows == 0
        assert tick.engine._aggregates == first.engine._aggregates

    def test_churn_above_crossover_falls_back_cold(self, ticks):
        session = DeltaSession(DeltaConfig(crossover=0.05))
        session.begin_tick(ticks[0])
        tick = session.begin_tick(ticks[1])  # ~17% of rows churn
        assert tick.path == "cold"
        assert tick.reason == "fraction"
        assert tick.decision is None  # the miner picks its own serial rung
        assert tick.changed_fraction > 0.05

    def test_reset_forces_cold(self, ticks):
        session = DeltaSession()
        session.begin_tick(ticks[0])
        session.begin_tick(ticks[1])
        session.reset()
        tick = session.begin_tick(ticks[2])
        assert tick.path == "cold"
        assert tick.reason == "first_tick"


class TestEquivalence:
    def test_streaming_candidates_bitwise_equal_stateless(self, ticks):
        # Crossover pinned: the auto mode measures wall-clock latencies,
        # which at this tiny scale would make the path choice timing-
        # dependent (auto behavior is covered by TestAutoCrossover).
        miner = StreamingRAPMiner(CONFIG, delta=DeltaConfig(crossover=0.5))
        for tick_data in ticks:
            produced = miner.run(tick_data).candidates
            assert_bit_identical(produced, stateless_candidates(tick_data))
        assert miner.stats.patched_ticks == len(ticks) - 1

    def test_value_lanes_bitwise_equal_cold_on_every_tick(self, schema, monkeypatch):
        from repro.core import kernels
        from repro.core.engine import AggregationEngine

        calls = []
        delta_patch = kernels.delta_patch
        monkeypatch.setattr(
            kernels,
            "delta_patch",
            lambda *args: calls.append(1) or delta_patch(*args),
        )
        ticks = make_flipping_ticks(schema, 8)
        miner = StreamingRAPMiner(CONFIG, delta=DeltaConfig(crossover=0.5))
        flips = 0
        for previous, tick_data in zip([None] + ticks, ticks):
            miner.run(tick_data)
            if previous is None:
                continue
            assert miner.stats.last_path == "patched"
            flips += bool((previous.labels != tick_data.labels).any())
            # Only a label flip runs the patch kernel.
            assert len(calls) == flips
            warm = miner.session._engine
            rebuilt = FineGrainedDataset(
                schema, tick_data.codes.copy(), tick_data.v, tick_data.f,
                tick_data.labels,
            )
            cold = AggregationEngine(rebuilt)
            assert warm._aggregates
            for aggregate in warm._aggregates.values():
                cuboid = aggregate.cuboid
                for want in (cold.aggregate(cuboid), rebuilt.aggregate(cuboid)):
                    for lane in ("v_sum", "f_sum"):
                        np.testing.assert_array_equal(
                            getattr(aggregate, lane).view(np.int64),
                            getattr(want, lane).view(np.int64),
                        )
                    np.testing.assert_array_equal(
                        aggregate.anomalous_support, want.anomalous_support
                    )
        assert 0 < flips < len(ticks) - 1  # both kinds of patched tick ran

    def test_cached_set_grows_between_patched_ticks(self, schema):
        # Later ticks search more attributes, so each patch runs over a
        # larger cached-cuboid set than the stride plan built before it.
        from repro.core.engine import AggregationEngine
        from repro.core.search import layerwise_topdown_search

        ticks = make_flipping_ticks(schema, 6)
        searched = [(0,), (0, 1), (0, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2)]
        session = DeltaSession(DeltaConfig(crossover=0.5))
        carried = []
        for tick_data, indices in zip(ticks, searched):
            tick = session.begin_tick(tick_data)
            if tick.path == "patched":
                carried.append(tick.patched_cuboids)
            layerwise_topdown_search(
                tick_data, indices, early_stop=False, engine=tick.engine
            )
            cold = AggregationEngine(tick_data)
            for aggregate in tick.engine._aggregates.values():
                want = cold.aggregate(aggregate.cuboid)
                np.testing.assert_array_equal(aggregate.codes, want.codes)
                np.testing.assert_array_equal(aggregate.support, want.support)
                np.testing.assert_array_equal(
                    aggregate.anomalous_support, want.anomalous_support
                )
        assert carried == [1, 3, 3, 7, 7]


def make_flipping_ticks(schema, n_ticks):
    """Ticks of one incident where every other tick flips some labels."""
    ticks = make_ticks(schema, ["(e0_0, *, *)"], n_ticks, seed=5)
    rng = np.random.default_rng(9)
    labels = ticks[0].labels
    flipping = []
    for index, tick in enumerate(ticks):
        if index % 2:
            labels = labels.copy()
            rows = rng.choice(tick.n_rows, size=3, replace=False)
            labels[rows] = ~labels[rows]
        flipping.append(
            FineGrainedDataset(schema, tick.codes, tick.v, tick.f, labels)
        )
    return flipping


class TestEngineRelease:
    def test_retired_engines_freed_by_reference_counting(self, schema):
        ticks = make_flipping_ticks(schema, 5)
        miner = StreamingRAPMiner(CONFIG, delta=DeltaConfig(crossover=0.5))
        retired = []
        gc.collect()
        gc.disable()
        try:
            for tick_data in ticks:
                miner.run(tick_data)
                engine = miner.session._engine
                # Read the lazy lanes too: they must not tie the engine.
                for aggregate in engine._aggregates.values():
                    aggregate.v_sum, aggregate.f_sum
                retired.append(weakref.ref(engine))
                del engine
            alive = [ref() is not None for ref in retired]
        finally:
            gc.enable()
        # Every engine but the session's current one is gone, although
        # the caller still holds every tick's dataset.
        assert alive == [False] * (len(ticks) - 1) + [True]

    def test_reset_releases_the_held_engine(self, schema):
        """After reset() the last tick's engine and dataset are freed by
        reference counting once the caller drops the dataset."""
        miner = StreamingRAPMiner(CONFIG, delta=DeltaConfig(crossover=0.5))
        gc.collect()
        gc.disable()
        try:
            for tick_data in make_flipping_ticks(schema, 3):
                miner.run(tick_data)
            del tick_data
            engine = weakref.ref(miner.session._engine)
            dataset = weakref.ref(miner.session._engine.dataset)
            miner.reset()
            alive = (engine() is not None, dataset() is not None)
        finally:
            gc.enable()
        assert alive == (False, False)


class TestLayoutChange:
    """Satellite: capacity growth mid-stream must re-anchor cold, correctly."""

    def test_capacity_growth_cold_rebuilds(self, schema):
        ticks = make_ticks(schema, ["(e0_0, *, *)"], 3)
        miner = StreamingRAPMiner(CONFIG, delta=DeltaConfig(crossover=0.5))
        for tick_data in ticks:
            miner.run(tick_data)
        assert miner.stats.last_path == "patched"
        # A new element value appears: the leaf table grows to a wider
        # schema.  The session must transparently aggregate cold.
        grown_schema = schema_from_sizes([6, 3, 4])
        grown = make_labelled_dataset(grown_schema, ["(e0_0, *, *)"], seed=3)
        produced = miner.run(grown).candidates
        assert miner.stats.last_path == "cold"
        assert miner.stats.last_reason == "layout_change"
        assert_bit_identical(produced, stateless_candidates(grown))

    def test_patching_resumes_after_layout_change(self, schema):
        miner = StreamingRAPMiner(CONFIG, delta=DeltaConfig(crossover=0.5))
        for tick_data in make_ticks(schema, ["(e0_0, *, *)"], 2):
            miner.run(tick_data)
        grown_schema = schema_from_sizes([6, 3, 4])
        for tick_data in make_ticks(grown_schema, ["(e0_0, *, *)"], 3, seed=7):
            produced = miner.run(tick_data).candidates
            assert_bit_identical(produced, stateless_candidates(tick_data))
        assert miner.stats.last_path == "patched"
        assert miner.stats.cold_ticks == 2  # first tick + layout change


class TestDegradationComposition:
    def test_drained_budget_steps_off_delta(self, ticks):
        session = DeltaSession()
        session.begin_tick(ticks[0])
        drained = Budget(1.0, clock=StepClock(step=100.0))
        tick = session.begin_tick(ticks[1], budget=drained, policy=DegradationPolicy())
        assert tick.path == "cold"
        assert tick.decision is not None
        assert tick.decision.tier != "delta"

    def test_healthy_budget_stays_on_delta(self, ticks):
        session = DeltaSession()
        session.begin_tick(ticks[0])
        fresh = Budget(1000.0, clock=StepClock(step=0.001))
        tick = session.begin_tick(ticks[1], budget=fresh, policy=DegradationPolicy())
        assert tick.path == "patched"
        assert tick.decision is not None and tick.decision.tier == "delta"

    def test_expired_deadline_mid_stream_returns_partial(self, ticks):
        miner = StreamingRAPMiner(CONFIG)
        miner.run(ticks[0])
        drained = Budget(1.0, clock=StepClock(step=100.0))
        result = miner.run(ticks[1], budget=drained, degradation=DegradationPolicy())
        assert result.stats.degradation_tier is not None
        assert isinstance(result.candidates, list)  # well-formed partial


class TestAutoCrossover:
    def test_initial_threshold_until_measured(self, ticks):
        session = DeltaSession()
        assert session.crossover == session.config.auto_initial
        session.begin_tick(ticks[0])
        assert session.crossover == session.config.auto_initial

    def test_break_even_from_observed_latencies(self, ticks):
        session = DeltaSession()
        cold = session.begin_tick(ticks[0])
        session.record_tick_seconds(cold, 1.0)
        patched = session.begin_tick(ticks[1])
        assert patched.path == "patched"
        session.record_tick_seconds(patched, 0.01)
        n_rows = ticks[1].n_rows
        expected = 1.0 / ((0.01 / patched.changed_rows) * n_rows)
        lo, hi = session.config.auto_bounds
        assert session.crossover == pytest.approx(min(hi, max(lo, expected)))

    def test_bounds_clamp_noisy_observations(self, ticks):
        session = DeltaSession()
        cold = session.begin_tick(ticks[0])
        session.record_tick_seconds(cold, 1000.0)  # absurdly slow cold tick
        patched = session.begin_tick(ticks[1])
        session.record_tick_seconds(patched, 1e-9)
        assert session.crossover == session.config.auto_bounds[1]


class TestConfigValidation:
    def test_crossover_range(self):
        with pytest.raises(ValueError):
            DeltaConfig(crossover=0.0)
        with pytest.raises(ValueError):
            DeltaConfig(crossover=1.5)

    def test_auto_bounds_ordering(self):
        with pytest.raises(ValueError):
            DeltaConfig(auto_bounds=(0.5, 0.2))

    def test_auto_initial_within_bounds(self):
        with pytest.raises(ValueError):
            DeltaConfig(auto_initial=0.9, auto_bounds=(0.1, 0.5))
