"""The graceful-degradation ladder: decisions and miner integration."""

import pytest

from repro import obs
from repro.core.config import RAPMinerConfig
from repro.core.miner import RAPMiner
from repro.resilience import (
    TIERS,
    Budget,
    DegradationDecision,
    DegradationPolicy,
    StepClock,
)
from tests.conftest import make_labelled_dataset


def drained_budget():
    """fraction_remaining() == 0.0 on every reading."""
    return Budget(1.0, clock=StepClock(step=100.0))


def fresh_budget():
    """fraction_remaining() ~ 1.0 on every reading."""
    return Budget(1000.0, clock=StepClock(step=0.001))


def half_budget():
    # construction reads 0, every later reading ~600 of 1000 elapsed.
    return Budget(1000.0, clock=StepClock(step=600.0))


class TestDecisions:
    def test_tiers_catalogued(self):
        assert TIERS == ("delta", "full", "layer_capped")

    def test_delta_healthy_stays_on_top_rung(self):
        decision = DegradationPolicy().decide_delta(100, fresh_budget())
        assert decision == DegradationDecision("delta")
        assert not decision.degraded

    def test_delta_no_budget_is_delta(self):
        assert DegradationPolicy().decide_delta(100, None).tier == "delta"

    def test_delta_half_budget_steps_to_cold_full(self):
        decision = DegradationPolicy(budget_fraction=0.5).decide_delta(
            100, half_budget()
        )
        assert decision.tier == "full"
        assert decision.reason == "budget"

    def test_delta_drained_budget_caps(self):
        decision = DegradationPolicy().decide_delta(100, drained_budget())
        assert decision.tier == "layer_capped"
        assert decision.reason == "budget"

    def test_delta_leaf_limit_caps(self):
        decision = DegradationPolicy(leaf_limit=10).decide_delta(11, None)
        assert decision.tier == "layer_capped"
        assert decision.reason == "leaf_count"

    def test_serial_full_speed_when_healthy(self):
        decision = DegradationPolicy().decide_serial(100, fresh_budget())
        assert decision == DegradationDecision("full")
        assert not decision.degraded

    def test_serial_no_budget_is_full_speed(self):
        assert DegradationPolicy().decide_serial(100, None).tier == "full"

    def test_serial_leaf_limit_caps(self):
        policy = DegradationPolicy(leaf_limit=10, capped_layer=1)
        decision = policy.decide_serial(11, None)
        assert decision.tier == "layer_capped"
        assert decision.max_layer == 1
        assert decision.reason == "leaf_count"
        assert decision.degraded

    def test_serial_drained_budget_caps(self):
        decision = DegradationPolicy(capped_layer=2).decide_serial(
            100, drained_budget()
        )
        assert decision.tier == "layer_capped"
        assert decision.reason == "budget"

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(budget_fraction=0.2, critical_fraction=0.5)
        with pytest.raises(ValueError):
            DegradationPolicy(leaf_limit=0)
        with pytest.raises(ValueError):
            DegradationPolicy(capped_layer=0)


@pytest.fixture
def datasets(four_attr_schema):
    return [
        make_labelled_dataset(four_attr_schema, ["(e0_0, *, *, *)"], seed=1),
        make_labelled_dataset(four_attr_schema, ["(e0_1, e1_1, *, *)"], seed=2),
    ]


class TestMinerIntegration:
    def test_layer_cap_tier_equals_explicit_max_layer(self, datasets):
        policy = DegradationPolicy(leaf_limit=10, capped_layer=1)
        capped = RAPMiner(RAPMinerConfig(max_layer=1)).run(datasets[0])
        degraded = RAPMiner().run(datasets[0], degradation=policy)
        assert degraded.stats.degradation_tier == "layer_capped"
        assert [c.combination for c in degraded.candidates] == [
            c.combination for c in capped.candidates
        ]

    def test_no_policy_leaves_tier_unset(self, datasets):
        result = RAPMiner().run(datasets[0])
        assert result.stats.degradation_tier is None

    def test_batch_under_policy_equals_per_case_run(self, datasets):
        policy = DegradationPolicy(leaf_limit=10, capped_layer=1)
        batch = RAPMiner().run_batch(datasets, degradation=policy)
        single = [RAPMiner().run(d, degradation=policy) for d in datasets]
        assert [r.stats.degradation_tier for r in batch] == [
            "layer_capped",
            "layer_capped",
        ]
        for got, want in zip(batch, single):
            assert got.candidates == want.candidates
            assert got.stats.degradation_tier == want.stats.degradation_tier
            assert got.stats.stop_reason == want.stats.stop_reason

    def test_serial_fallback_is_bit_identical(self, datasets):
        stacked = RAPMiner().run_batch(datasets)
        degraded = RAPMiner().run_batch(datasets, degradation=DegradationPolicy())
        assert [r.stats.degradation_tier for r in degraded] == ["full", "full"]
        for got, want in zip(degraded, stacked):
            assert got.candidates == want.candidates

    def test_degrade_decisions_counted(self, datasets):
        with obs.capture() as collector:
            RAPMiner().run_batch(
                datasets, degradation=DegradationPolicy(leaf_limit=10)
            )
        assert collector.metrics.value(
            "resilience_degrade_total", {"tier": "layer_capped", "reason": "leaf_count"}
        ) == 2.0

    def test_config_carries_policy(self, datasets):
        miner = RAPMiner(
            RAPMinerConfig(degradation=DegradationPolicy(leaf_limit=10))
        )
        result = miner.run(datasets[0])
        assert result.stats.degradation_tier == "layer_capped"
