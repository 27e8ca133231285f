"""Tests for the case-stacked batch kernel (``core/stacked.py``).

The contract under test is *bitwise* serial equivalence: every stacked
result — per-case layer counts, CP values, kept/deleted attribute sets,
search candidates, stats and stop reasons — must equal the per-case
serial path exactly, not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import (
    RAPMiner,
    RAPMinerConfig,
    StackedCaseEngine,
    all_classification_powers,
    batched_layerwise_topdown_search,
    delete_redundant_attributes,
    group_datasets_by_layout,
    layerwise_topdown_search,
    stacked_key_dtype,
)
from repro.core.attribute import AttributeSchema
from repro.core.cuboid import enumerate_cuboids
from repro.core.engine import AggregationEngine
from repro.data.dataset import FineGrainedDataset
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import schema_from_sizes


def make_datasets(n_cases=4, seed=5, sizes=(4, 3, 3, 2)):
    cases = generate_rapmd(
        schema_from_sizes(list(sizes)),
        RAPMDConfig(n_cases=n_cases, n_days=1, seed=seed),
    )
    return [case.dataset for case in cases]


class TestStackedKeyDtype:
    def test_uint32_at_exact_boundary(self):
        # span == 2**32 still fits: the largest key is span - 1.
        assert stacked_key_dtype(2, 2**31) == np.dtype(np.uint32)

    def test_int64_just_above_boundary(self):
        assert stacked_key_dtype(2, 2**31 + 1) == np.dtype(np.int64)

    def test_int64_up_to_exact_capacity(self):
        assert stacked_key_dtype(2**31, 2**32) == np.dtype(np.int64)

    def test_overflow_beyond_int64(self):
        with pytest.raises(OverflowError):
            stacked_key_dtype(2**31 + 1, 2**32)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stacked_key_dtype(-1, 4)


class TestLayoutGrouping:
    def test_shared_layout_is_one_group(self):
        datasets = make_datasets(3)
        assert group_datasets_by_layout(datasets) == [[0, 1, 2]]

    def test_distinct_schemas_split(self):
        a = make_datasets(2, sizes=(3, 2, 4, 2))
        b = make_datasets(2, sizes=(5, 3, 2, 2))
        groups = group_datasets_by_layout([a[0], b[0], a[1], b[1]])
        assert groups == [[0, 2], [1, 3]]

    def test_equal_content_different_buffers_merge(self):
        datasets = make_datasets(2)
        clone = FineGrainedDataset(
            datasets[1].schema,
            datasets[1].codes.copy(),  # same content, different buffer
            datasets[1].v,
            datasets[1].f,
            datasets[1].labels,
        )
        assert group_datasets_by_layout([datasets[0], clone]) == [[0, 1]]

    def test_first_seen_order_preserved(self):
        a = make_datasets(1, sizes=(3, 2, 4, 2))
        b = make_datasets(1, sizes=(5, 3, 2, 2))
        assert group_datasets_by_layout([b[0], a[0]]) == [[0], [1]]

    def test_same_shape_different_elements_split(self):
        # Equal names, sizes and codes: only the element vocabularies
        # differ, and group codes decode through them.
        def case(prefix):
            schema = AttributeSchema(
                {"A": [f"{prefix}{i}" for i in range(3)], "B": ["b0", "b1"]}
            )
            codes = np.array([[a, b] for a in range(3) for b in range(2)])
            v = np.full(6, 10.0)
            return FineGrainedDataset(schema, codes, v, v, codes[:, 0] == 0)

        a, b = case("a"), case("x")
        assert group_datasets_by_layout([a, b]) == [[0], [1]]
        miner = RAPMiner()
        batch = miner.run_batch([a, b])
        assert [r.patterns for r in batch] == [
            miner.run(a).patterns,
            miner.run(b).patterns,
        ]
        assert [str(r.patterns[0]) for r in batch] == ["(a0, *)", "(x0, *)"]


class TestStackedEngineValidation:
    def test_requires_datasets(self):
        with pytest.raises(ValueError):
            StackedCaseEngine([])

    def test_rejects_mixed_schemas(self):
        a = make_datasets(1, sizes=(3, 2, 4, 2))
        b = make_datasets(1, sizes=(5, 3, 2, 2))
        with pytest.raises(ValueError):
            StackedCaseEngine([a[0], b[0]])

    def test_rejects_mixed_leaf_populations(self):
        datasets = make_datasets(2)
        permuted = FineGrainedDataset(
            datasets[1].schema,
            datasets[1].codes[::-1].copy(),
            datasets[1].v,
            datasets[1].f,
            datasets[1].labels,
        )
        with pytest.raises(ValueError):
            StackedCaseEngine([datasets[0], permuted])


class TestStackedAggregates:
    def test_bitwise_equal_to_cold_engine_every_cuboid(self):
        datasets = make_datasets(4)
        stacked = StackedCaseEngine(datasets)
        cuboids = list(enumerate_cuboids(stacked.schema.n_attributes))
        layer = stacked.layer_counts(cuboids, range(len(datasets)))
        for cuboid, entry in zip(cuboids, layer):
            assert entry.cuboid == cuboid
            for slot, dataset in enumerate(datasets):
                ref = AggregationEngine(dataset).aggregate(cuboid)
                assert np.array_equal(ref.codes, entry.codes)
                assert np.array_equal(ref.support, entry.support)
                assert np.array_equal(ref.anomalous_support, entry.anomalous[slot])

    def test_slot_subset_selects_cases(self):
        datasets = make_datasets(3)
        stacked = StackedCaseEngine(datasets)
        cuboids = [next(iter(enumerate_cuboids(stacked.schema.n_attributes)))]
        (subset,) = stacked.layer_counts(cuboids, [2, 0])
        (full,) = stacked.layer_counts(cuboids, [0, 1, 2])
        assert np.array_equal(subset.anomalous[0], full.anomalous[2])
        assert np.array_equal(subset.anomalous[1], full.anomalous[0])

    def test_private_engine_stays_out_of_registry(self):
        from repro.core.engine import engine_for

        datasets = make_datasets(2)
        stacked = StackedCaseEngine(datasets)
        assert engine_for(datasets[0]) is not stacked.engine


class TestStackedClassificationPower:
    def test_matches_serial_bitwise(self):
        datasets = make_datasets(4)
        stacked = StackedCaseEngine(datasets)
        powers = stacked.classification_powers()
        for slot, dataset in enumerate(datasets):
            serial = all_classification_powers(dataset)
            for i, name in enumerate(dataset.schema.names):
                assert powers[slot, i] == serial[name]

    def test_all_normal_case_has_zero_cp(self):
        datasets = make_datasets(2)
        quiet = FineGrainedDataset(
            datasets[0].schema,
            datasets[0].codes,
            datasets[0].v,
            datasets[0].f,
            np.zeros(datasets[0].n_rows, dtype=bool),
        )
        stacked = StackedCaseEngine([datasets[0], quiet])
        powers = stacked.classification_powers()
        assert np.all(powers[1] == 0.0)

    def test_attribute_deletions_match_serial(self):
        datasets = make_datasets(4)
        stacked = StackedCaseEngine(datasets)
        for t_cp in (0.005, 0.05, 0.5):
            batch = stacked.attribute_deletions(t_cp)
            for slot, dataset in enumerate(datasets):
                serial = delete_redundant_attributes(dataset, t_cp)
                assert batch[slot].kept_indices == serial.kept_indices
                assert batch[slot].deleted_indices == serial.deleted_indices
                assert batch[slot].cp_values == serial.cp_values

    def test_attribute_deletions_reject_negative_threshold(self):
        stacked = StackedCaseEngine(make_datasets(1))
        with pytest.raises(ValueError):
            stacked.attribute_deletions(-0.1)


def assert_outcomes_equal(got, want):
    assert [
        (c.combination, c.confidence, c.support, c.anomalous_support, c.layer)
        for c in got.candidates
    ] == [
        (c.combination, c.confidence, c.support, c.anomalous_support, c.layer)
        for c in want.candidates
    ]
    for field in (
        "n_cuboids_visited",
        "n_combinations_evaluated",
        "n_candidates",
        "n_criteria3_pruned",
        "deepest_layer_visited",
        "early_stopped",
        "stop_reason",
    ):
        assert getattr(got.stats, field) == getattr(want.stats, field), field


class TestBatchedSearch:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"early_stop": False},
            {"max_layer": 2},
            {"t_conf": 0.5},
        ],
    )
    def test_matches_serial_search(self, kwargs):
        datasets = make_datasets(4)
        stacked = StackedCaseEngine(datasets)
        indices = tuple(range(stacked.schema.n_attributes))
        outcomes = batched_layerwise_topdown_search(
            stacked, range(len(datasets)), indices, **kwargs
        )
        for dataset, outcome in zip(datasets, outcomes):
            serial = layerwise_topdown_search(dataset, indices, **kwargs)
            assert_outcomes_equal(outcome, serial)

    def test_attribute_subset(self):
        datasets = make_datasets(3)
        stacked = StackedCaseEngine(datasets)
        indices = (0, 2)
        outcomes = batched_layerwise_topdown_search(
            stacked, range(len(datasets)), indices
        )
        for dataset, outcome in zip(datasets, outcomes):
            serial = layerwise_topdown_search(dataset, indices)
            assert_outcomes_equal(outcome, serial)

    def test_zero_anomalous_slot_short_circuits(self):
        datasets = make_datasets(2)
        quiet = FineGrainedDataset(
            datasets[0].schema,
            datasets[0].codes,
            datasets[0].v,
            datasets[0].f,
            np.zeros(datasets[0].n_rows, dtype=bool),
        )
        stacked = StackedCaseEngine([datasets[0], quiet])
        outcomes = batched_layerwise_topdown_search(
            stacked, [0, 1], tuple(range(stacked.schema.n_attributes))
        )
        assert outcomes[1].candidates == []
        assert outcomes[1].stats.stop_reason == "no_anomalous_leaves"
        serial = layerwise_topdown_search(
            datasets[0], tuple(range(stacked.schema.n_attributes))
        )
        assert_outcomes_equal(outcomes[0], serial)

    def test_rejects_bad_threshold_and_empty_attributes(self):
        stacked = StackedCaseEngine(make_datasets(1))
        with pytest.raises(ValueError):
            batched_layerwise_topdown_search(stacked, [0], (0,), t_conf=1.0)
        with pytest.raises(ValueError):
            batched_layerwise_topdown_search(stacked, [0], ())


class TestRunBatch:
    def assert_results_equal(self, got, want):
        assert [
            (c.combination, c.confidence, c.support, c.anomalous_support, c.layer)
            for c in got.candidates
        ] == [
            (c.combination, c.confidence, c.support, c.anomalous_support, c.layer)
            for c in want.candidates
        ]
        assert got.stats == want.stats
        if want.deletion is None:
            assert got.deletion is None
        else:
            assert got.deletion.kept_indices == want.deletion.kept_indices
            assert got.deletion.cp_values == want.deletion.cp_values

    @pytest.mark.parametrize(
        "config",
        [
            RAPMinerConfig(),
            RAPMinerConfig(enable_attribute_deletion=False),
            RAPMinerConfig(early_stop=False, max_layer=2),
            RAPMinerConfig(layer_normalized_ranking=False),
        ],
    )
    def test_matches_serial_run(self, config):
        # One layout group whose cases keep different attribute sets, so
        # the batch splits into several CP sub-groups.
        datasets = make_datasets(8)
        assert len(group_datasets_by_layout(datasets)) == 1
        miner = RAPMiner(config)
        batch = miner.run_batch(datasets)
        for dataset, result in zip(datasets, batch):
            self.assert_results_equal(result, miner.run(dataset))
        if config.enable_attribute_deletion:
            kept_sets = {frozenset(r.deletion.kept_indices) for r in batch}
            assert len(kept_sets) >= 2

    def test_k_truncation_matches(self):
        datasets = make_datasets(4)
        miner = RAPMiner()
        batch = miner.run_batch(datasets, k=2)
        for dataset, result in zip(datasets, batch):
            self.assert_results_equal(result, miner.run(dataset, k=2))

    def test_mixed_layouts_scatter_to_input_order(self):
        a = make_datasets(2, sizes=(3, 2, 4, 2), seed=7)
        b = make_datasets(2, sizes=(5, 3, 2, 2), seed=8)
        mixed = [a[0], b[0], a[1], b[1]]
        miner = RAPMiner()
        with obs.capture() as collector:
            batch = miner.run_batch(mixed)
        for dataset, result in zip(mixed, batch):
            self.assert_results_equal(result, miner.run(dataset))
        assert collector.metrics.value("stacked_groups_total") == 2
        assert collector.metrics.value("stacked_batch_cases_total") == 4
        assert collector.metrics.value("stacked_layers_fused_total") >= 2

    def test_empty_batch(self):
        assert RAPMiner().run_batch([]) == []

    def test_randomized_schema_grid(self):
        rng = np.random.default_rng(2)
        miner = RAPMiner()
        for trial in range(3):
            sizes = tuple(int(rng.integers(2, 6)) for _ in range(4))
            datasets = make_datasets(3, seed=50 + trial, sizes=sizes)
            batch = miner.run_batch(datasets)
            for dataset, result in zip(datasets, batch):
                self.assert_results_equal(result, miner.run(dataset))
