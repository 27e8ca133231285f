"""Property: carrying an engine across intervals never changes the answer.

Two owners hand an engine from one interval to the next, both through a
:class:`~repro.core.delta.DeltaSession`: :class:`StreamingRAPMiner` and
the fleet's workers.  Over random interval sequences — labels persist,
flip, clear or jump, values drift — both must return exactly the
candidates (combination, confidence, layer, support, anomalous support,
in ranked order) of a stateless :class:`RAPMiner` run on a fresh copy of
each interval, whichever path (patched, warm clone, cold) a tick takes.
The fleet runs inline with one and with two workers per layout, under a
drawn interleaving.
"""

import random

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import RAPMinerConfig
from repro.core.delta import StreamingRAPMiner
from repro.core.miner import RAPMiner
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import LocalizationCase
from repro.data.schema import schema_from_sizes
from repro.fleet import FleetConfig, fleet_localize


@st.composite
def interval_sequences(draw):
    """A short sequence of labelled intervals over one leaf population.

    Labels persist, drift, clear, or jump between intervals, and a leaf's
    forecast may drift without a label flip — the carried engine must
    agree with the stateless miner in every regime.
    """
    schema = schema_from_sizes(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    n = schema.n_leaves
    n_intervals = draw(st.integers(1, 4))
    base_labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    intervals = []
    labels = base_labels
    f = np.ones(n) * 10.0
    for __ in range(n_intervals):
        mutate = draw(st.sampled_from(["keep", "flip_one", "clear", "fresh", "drift"]))
        if mutate == "flip_one" and n:
            index = draw(st.integers(0, n - 1))
            labels = labels.copy()
            labels[index] = ~labels[index]
        elif mutate == "clear":
            labels = np.zeros(n, dtype=bool)
        elif mutate == "fresh":
            labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        elif mutate == "drift":
            f = f.copy()
            f[draw(st.integers(0, n - 1))] += 1.0
        intervals.append(FineGrainedDataset.full(schema, np.ones(n) * 10.0, f, labels))
    return intervals


def fresh(dataset):
    """The interval with no engine and no arrays shared with any other run."""
    return FineGrainedDataset(
        dataset.schema,
        dataset.codes.copy(),
        dataset.v.copy(),
        dataset.f.copy(),
        dataset.labels.copy(),
    )


class CandidateMiner(RAPMiner):
    """RAPMiner whose ``localize`` returns full candidates, so fleet rows
    can be compared field by field."""

    def localize(self, dataset, k=None):
        return self.run(dataset, k).candidates


def carried_runs(intervals, config, k, schedule_seed):
    """Each owner's candidates per interval, in interval order."""
    streaming = StreamingRAPMiner(config)
    yield "streaming", [streaming.run(fresh(d), k).candidates for d in intervals]
    cases = [
        LocalizationCase(case_id=f"tick-{i}", dataset=fresh(d), true_raps=())
        for i, d in enumerate(intervals)
    ]
    for shards in (1, 2):
        evaluation = fleet_localize(
            CandidateMiner(config),
            cases,
            config=FleetConfig(
                mode="inline",
                k=k,
                shards_per_layout=shards,
                schedule=random.Random(schedule_seed),
            ),
        )
        assert all(row.error is None for row in evaluation.results)
        yield f"fleet-{shards}", [row.predicted for row in evaluation.results]


def assert_carried_equal_stateless(intervals, config, k=None, schedule_seed=0):
    stateless = RAPMiner(config)
    want = [stateless.run(fresh(d), k).candidates for d in intervals]
    for owner, got in carried_runs(intervals, config, k, schedule_seed):
        assert got == want, owner


@given(interval_sequences(), st.floats(0.55, 0.95), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_incremental_equals_stateless(intervals, t_conf, schedule_seed):
    config = RAPMinerConfig(t_conf=t_conf, enable_attribute_deletion=False)
    assert_carried_equal_stateless(intervals, config, schedule_seed=schedule_seed)


@given(interval_sequences(), st.integers(1, 3), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_incremental_rankings_match_on_fast_path(intervals, k, schedule_seed):
    """Not just the set: the top-k ranking agrees with the stateless miner."""
    config = RAPMinerConfig(enable_attribute_deletion=False)
    assert_carried_equal_stateless(intervals, config, k, schedule_seed)
