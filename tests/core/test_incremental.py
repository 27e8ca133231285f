"""Cross-interval localization: StreamingRAPMiner over consecutive intervals.

A "full run" is a cold tick (the engine re-aggregates the leaves); the
"fast path" is a patched tick (the previous interval's aggregates are
carried over and patched from the changed rows).  Either way the answer
is bitwise what a stateless RAPMiner returns.
"""

import numpy as np
import pytest

from repro.core.attribute import AttributeCombination
from repro.core.config import RAPMinerConfig
from repro.core.delta import StreamingRAPMiner
from repro.core.miner import RAPMiner
from repro.data.cdn_simulator import CDNSimulator, CDNSimulatorConfig
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import inject_failures, sample_raps
from repro.data.schema import cdn_schema
from tests.conftest import make_labelled_dataset

CONFIG = RAPMinerConfig(enable_attribute_deletion=False)


def ac(text):
    return AttributeCombination.parse(text)


def assert_matches_stateless(candidates, dataset, config=CONFIG):
    """Every candidate field equals a stateless run on a fresh copy."""
    fresh = FineGrainedDataset(
        dataset.schema,
        dataset.codes.copy(),
        dataset.v.copy(),
        dataset.f.copy(),
        dataset.labels.copy(),
    )
    assert candidates == RAPMiner(config).run(fresh).candidates


@pytest.fixture
def incident_intervals():
    """Five consecutive intervals of the same 2-RAP incident."""
    sim = CDNSimulator(cdn_schema(6, 3, 3, 5), CDNSimulatorConfig(seed=31))
    rng = np.random.default_rng(31)
    background = sim.snapshot(100).to_dataset()
    raps = sample_raps(background, 2, rng, min_support=6)
    intervals = []
    for step in range(5):
        snapshot = sim.snapshot(100 + step).to_dataset()
        labelled, __ = inject_failures(snapshot, raps, rng)
        intervals.append(labelled)
    return raps, intervals


@pytest.fixture
def persisted_incident(incident_intervals):
    """The incident held over five intervals: only its own leaves churn."""
    raps, intervals = incident_intervals
    first = intervals[0]
    rows = first.labels
    rng = np.random.default_rng(32)
    ticks = [first]
    for __ in range(4):
        f = first.f.copy()
        f[rows] = first.v[rows] / rng.uniform(0.55, 0.65, int(rows.sum()))
        ticks.append(FineGrainedDataset(first.schema, first.codes, first.v, f, rows))
    return raps, ticks


class TestFastPath:
    def test_first_interval_is_a_full_run(self, incident_intervals):
        __, intervals = incident_intervals
        miner = StreamingRAPMiner(CONFIG)
        miner.run(intervals[0])
        assert miner.stats.cold_ticks == 1
        assert miner.stats.patched_ticks == 0

    def test_persisted_incident_takes_fast_path(self, persisted_incident):
        raps, intervals = persisted_incident
        miner = StreamingRAPMiner(CONFIG)
        for interval in intervals:
            result = miner.run(interval)
            assert set(result.patterns) == set(raps)
        assert miner.stats.cold_ticks == 1
        assert miner.stats.patched_ticks == len(intervals) - 1

    def test_fast_path_matches_full_run(self, incident_intervals, persisted_incident):
        """Every interval's answer equals an independent full localization."""
        for __, intervals in (incident_intervals, persisted_incident):
            miner = StreamingRAPMiner(CONFIG)
            for interval in intervals:
                assert_matches_stateless(miner.run(interval).candidates, interval)

    def test_reset_forces_full_run(self, persisted_incident):
        __, intervals = persisted_incident
        miner = StreamingRAPMiner(CONFIG)
        miner.run(intervals[0])
        miner.reset()
        miner.run(intervals[1])
        assert miner.stats.cold_ticks == 2


class TestFallback:
    def test_incident_change_triggers_full_run(self, example_schema):
        miner = StreamingRAPMiner(CONFIG)
        first = make_labelled_dataset(example_schema, ["(a1, *, *)"])
        second = make_labelled_dataset(example_schema, ["(a2, b2, *)"])
        assert miner.localize(first) == [ac("(a1, *, *)")]
        assert miner.localize(second) == [ac("(a2, b2, *)")]
        # Half the leaves changed, above the default crossover.
        assert miner.stats.cold_ticks == 2
        assert miner.stats.last_reason == "fraction"

    def test_incident_widening_is_patched_exactly(self, example_schema):
        """When a parent scope lights up, the cached child is no longer a RAP."""
        miner = StreamingRAPMiner(CONFIG)
        narrow = make_labelled_dataset(example_schema, ["(a1, b1, *)"])
        wide = make_labelled_dataset(example_schema, ["(a1, *, *)"])
        assert miner.localize(narrow) == [ac("(a1, b1, *)")]
        result = miner.run(wide)
        assert result.patterns == [ac("(a1, *, *)")]
        assert miner.stats.last_path == "patched"
        assert_matches_stateless(result.candidates, wide)

    def test_new_unexplained_anomalies_are_patched_exactly(self, example_schema):
        miner = StreamingRAPMiner(CONFIG)
        first = make_labelled_dataset(example_schema, ["(a1, *, *)"])
        grown = make_labelled_dataset(example_schema, ["(a1, *, *)", "(a2, b2, *)"])
        miner.localize(first)
        result = miner.run(grown)
        assert set(result.patterns) == {ac("(a1, *, *)"), ac("(a2, b2, *)")}
        assert miner.stats.last_path == "patched"
        assert_matches_stateless(result.candidates, grown)

    def test_incident_clearing_falls_back_to_empty(self, example_schema):
        miner = StreamingRAPMiner(CONFIG)
        first = make_labelled_dataset(example_schema, ["(a1, *, *)"])
        miner.localize(first)
        n = example_schema.n_leaves
        quiet = FineGrainedDataset.full(example_schema, np.ones(n), np.ones(n))
        assert miner.localize(quiet) == []

    def test_small_k_does_not_starve_verification(self, example_schema):
        """k=1 on interval 1 must not make interval 2 miss the second RAP."""
        miner = StreamingRAPMiner(CONFIG)
        both = make_labelled_dataset(example_schema, ["(a1, *, *)", "(a2, b2, *)"])
        top1 = miner.localize(both, k=1)
        assert len(top1) == 1
        again = miner.localize(both, k=2)
        assert set(again) == {ac("(a1, *, *)"), ac("(a2, b2, *)")}
        assert miner.stats.patched_ticks == 1
