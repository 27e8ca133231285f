"""Budget mechanics and the deadline == max_layer determinism contract.

The central promise: a search that runs out of budget at a layer
boundary returns exactly the candidates an explicit ``max_layer`` cap at
the last completed layer would — across the serial path, the vectorized
batch kernel, and the process pool.
"""

import pickle

import pytest

from repro.core.config import RAPMinerConfig
from repro.core.miner import RAPMiner
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema, schema_from_sizes
from repro.experiments.runner import run_cases
from repro.fleet import FleetConfig, fleet_localize
from repro.resilience import Budget, StepClock
from tests.conftest import make_labelled_dataset


class TestStepClock:
    def test_advances_per_reading(self):
        clock = StepClock(step=2.0)
        assert clock() == 0.0
        assert clock() == 2.0
        assert clock() == 4.0

    def test_custom_start(self):
        assert StepClock(step=1.0, start=5.0)() == 5.0

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            StepClock(step=-1.0)

    def test_picklable(self):
        clock = StepClock(step=1.0)
        clock()
        clone = pickle.loads(pickle.dumps(clock))
        assert clone() == clock()  # same state, same next reading


class TestBudget:
    def test_unlimited_never_expires(self):
        budget = Budget(None, clock=StepClock(step=100.0))
        assert not budget.expired()
        assert budget.remaining() == float("inf")
        assert budget.fraction_remaining() == 1.0

    def test_expires_after_total(self):
        budget = Budget(2.5, clock=StepClock(step=1.0))
        assert not budget.expired()  # elapsed 1.0
        assert not budget.expired()  # elapsed 2.0
        assert budget.expired()  # elapsed 3.0

    def test_remaining_floors_at_zero(self):
        budget = Budget(1.0, clock=StepClock(step=5.0))
        assert budget.remaining() == 0.0
        assert budget.fraction_remaining() == 0.0

    def test_from_ms_none_passthrough(self):
        assert Budget.from_ms(None) is None
        budget = Budget.from_ms(50.0, clock=StepClock(step=0.0))
        assert budget.total == pytest.approx(0.05)

    def test_rejects_non_positive_total(self):
        with pytest.raises(ValueError):
            Budget(0.0)
        with pytest.raises(ValueError):
            Budget.from_ms(-5.0)

    def test_config_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError):
            RAPMinerConfig(deadline_ms=0.0)


def deep_config(**overrides):
    """Full-depth search: no early stop, no stage-1 deletion."""
    return RAPMinerConfig(
        early_stop=False, enable_attribute_deletion=False, **overrides
    )


@pytest.fixture
def deep_datasets(four_attr_schema):
    """Two shared-layout cases with candidates on layers 1 and 3."""
    return [
        make_labelled_dataset(
            four_attr_schema, ["(e0_0, *, *, *)", "(e0_1, e1_1, e2_0, *)"], seed=1
        ),
        make_labelled_dataset(
            four_attr_schema, ["(e0_2, *, *, *)", "(e0_3, e1_0, e2_1, *)"], seed=2
        ),
    ]


def candidate_keys(result):
    return [(c.combination, c.confidence, c.support) for c in result.candidates]


class TestDeadlineEqualsLayerCap:
    """StepClock(step=1) + 2.5 s budget expires at the third layer check,
    so exactly two BFS layers complete — the ``max_layer=2`` prefix."""

    def test_serial_partial_equals_explicit_cap(self, deep_datasets):
        dataset = deep_datasets[0]
        partial = RAPMiner(deep_config()).run(
            dataset, budget=Budget(2.5, clock=StepClock(step=1.0))
        )
        assert partial.stats.stop_reason == "deadline"
        layer = partial.stats.deepest_layer_visited
        assert layer == 2
        capped = RAPMiner(deep_config(max_layer=layer)).run(dataset)
        assert candidate_keys(partial) == candidate_keys(capped)
        # The deadline genuinely truncated: the full run finds more.
        full = RAPMiner(deep_config()).run(dataset)
        assert len(full.candidates) > len(partial.candidates)

    def test_vectorized_batch_partial_equals_explicit_cap(self, deep_datasets):
        partial = RAPMiner(deep_config()).run_batch(
            deep_datasets, budget=Budget(2.5, clock=StepClock(step=1.0))
        )
        capped = RAPMiner(deep_config(max_layer=2)).run_batch(deep_datasets)
        for got, want in zip(partial, capped):
            assert got.stats.stop_reason == "deadline"
            assert got.stats.deepest_layer_visited == 2
            assert candidate_keys(got) == candidate_keys(want)

    def test_fleet_partial_equals_explicit_cap(self):
        cases = generate_rapmd(
            cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=4, n_days=2, seed=9)
        )
        deadline_method = RAPMiner(
            deep_config(deadline_ms=2500.0, deadline_clock=StepClock(step=1.0))
        )
        capped_method = RAPMiner(deep_config(max_layer=2))
        config = FleetConfig(mode="inline", k=3)
        fleet = fleet_localize(deadline_method, cases, config=config)
        capped = fleet_localize(capped_method, cases, config=config)
        serial_capped = run_cases(capped_method, cases, k=3)
        assert [r.predicted for r in fleet.results] == [
            r.predicted for r in capped.results
        ]
        assert [r.predicted for r in fleet.results] == [
            r.predicted for r in serial_capped.results
        ]

    def test_drained_budget_returns_empty_but_valid(self, deep_datasets):
        # Expired before the first layer: no candidates, still well-formed.
        result = RAPMiner(deep_config()).run(
            deep_datasets[0], budget=Budget(0.5, clock=StepClock(step=1.0))
        )
        assert result.stats.stop_reason == "deadline"
        assert result.stats.deepest_layer_visited == 0
        assert result.candidates == []

    def test_no_budget_reaches_full_depth(self, deep_datasets):
        result = RAPMiner(deep_config()).run(deep_datasets[0])
        assert result.stats.stop_reason == "lattice_exhausted"
        assert result.stats.deepest_layer_visited == 4


class TestDeadlineTelemetry:
    def test_serial_and_stacked_paths_counted(self, deep_datasets):
        from repro import obs

        with obs.capture() as collector:
            RAPMiner(deep_config()).run(
                deep_datasets[0], budget=Budget(2.5, clock=StepClock(step=1.0))
            )
            RAPMiner(deep_config()).run_batch(
                deep_datasets, budget=Budget(2.5, clock=StepClock(step=1.0))
            )
        metrics = collector.metrics
        assert metrics.value(
            "resilience_deadline_exceeded_total", {"path": "serial"}
        ) == 1.0
        assert metrics.value(
            "resilience_deadline_exceeded_total", {"path": "stacked"}
        ) == 2.0


class TestDeadlineOverMixedKeptSets:
    """One layout group whose cases keep 1, 2, 3 and 4 attributes: the
    shared budget expires at the third fused layer check, which only the
    cases with three or more kept attributes still reach."""

    PATTERNS = [
        ["(e0_0, *, *, *)"],  # keeps (0,): its lattice ends at layer 1
        ["(e0_1, e1_1, *, *)"],  # keeps (0, 1): ends at layer 2
        ["(e0_1, e1_1, e2_0, *)"],  # keeps (0, 1, 2): cut by the deadline
        ["(e0_2, *, *, *)", "(e0_3, e1_0, e2_1, *)"],  # (0, 1, 2): cut
        [],  # no anomalous leaves: keeps every attribute, never searched
    ]

    @pytest.fixture
    def mixed_datasets(self, four_attr_schema):
        return [
            make_labelled_dataset(four_attr_schema, patterns, seed=seed)
            for seed, patterns in enumerate(self.PATTERNS)
        ]

    def test_each_case_keeps_its_own_reason(self, mixed_datasets):
        from repro import obs

        config = RAPMinerConfig(early_stop=False)
        with obs.capture() as collector:
            partial = RAPMiner(config).run_batch(
                mixed_datasets, budget=Budget(2.5, clock=StepClock(step=1.0))
            )
        kept = [result.deletion.kept_indices for result in partial]
        assert [len(k) for k in kept] == [1, 2, 3, 3, 4]
        reasons = [result.stats.stop_reason for result in partial]
        assert reasons == [
            "lattice_exhausted",
            "lattice_exhausted",
            "deadline",
            "deadline",
            "no_anomalous_leaves",
        ]
        capped = RAPMiner(RAPMinerConfig(early_stop=False, max_layer=2))
        for dataset, result in zip(mixed_datasets, partial):
            if result.stats.stop_reason == "deadline":
                assert result.stats.deepest_layer_visited == 2
                want = capped.run(dataset)
                assert candidate_keys(result) == candidate_keys(want)
            # Each case equals its own serial run under an identical budget.
            alone = RAPMiner(config).run(
                dataset, budget=Budget(2.5, clock=StepClock(step=1.0))
            )
            assert result.candidates == alone.candidates
            assert result.stats == alone.stats
        assert collector.metrics.value(
            "resilience_deadline_exceeded_total", {"path": "stacked"}
        ) == reasons.count("deadline")


class TestHugeCaseUnderTightDeadline:
    def test_10k_leaf_case_returns_within_structure(self):
        # Acceptance shape: a 10k-leaf case under a 50 ms deadline must
        # return a structurally valid (possibly partial) result.
        schema = schema_from_sizes([10, 10, 10, 10])
        dataset = make_labelled_dataset(schema, ["(e0_0, *, *, *)"])
        result = RAPMiner(RAPMinerConfig(deadline_ms=50.0)).run(dataset, k=5)
        assert result.stats.stop_reason in (
            "deadline",
            "coverage_early_stop",
            "lattice_exhausted",
        )
        assert isinstance(result.patterns, list)
