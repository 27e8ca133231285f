"""Tests for the shared aggregation engine: equivalence, roll-ups, parallelism."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core.attribute import AttributeCombination
from repro.core.cuboid import Cuboid, enumerate_cuboids
from repro.core.engine import (
    AggregationEngine,
    CandidateIndex,
    NaiveAggregationEngine,
    engine_for,
)
from repro.core.search import layerwise_topdown_search
from repro.data.dataset import FineGrainedDataset
from repro.data.schema import schema_from_sizes

from tests.conftest import make_labelled_dataset


def _random_dataset(sizes, seed, sparse=False):
    rng = np.random.default_rng(seed)
    schema = schema_from_sizes(list(sizes))
    n = schema.n_leaves
    if sparse:
        # Duplicate and missing leaf rows: the engine must not assume the
        # cross-product table.
        rows = rng.integers(0, n, size=max(1, n // 2))
        grids = np.meshgrid(*[np.arange(s) for s in schema.sizes], indexing="ij")
        full_codes = np.stack([g.reshape(-1) for g in grids], axis=1)
        codes = full_codes[rows]
        m = codes.shape[0]
        return FineGrainedDataset(
            schema, codes, rng.uniform(1, 10, m), rng.uniform(1, 10, m), rng.random(m) < 0.4
        )
    return FineGrainedDataset.full(
        schema, rng.uniform(1, 10, n), rng.uniform(1, 10, n), rng.random(n) < 0.4
    )


def _assert_aggregates_equal(actual, expected):
    assert actual.cuboid == expected.cuboid
    np.testing.assert_array_equal(actual.codes, expected.codes)
    np.testing.assert_array_equal(actual.support, expected.support)
    np.testing.assert_array_equal(actual.anomalous_support, expected.anomalous_support)
    np.testing.assert_allclose(actual.v_sum, expected.v_sum)
    np.testing.assert_allclose(actual.f_sum, expected.f_sum)


class TestAggregateEquivalence:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_on_every_cuboid(self, seed, sparse):
        dataset = _random_dataset((3, 2, 4), seed, sparse=sparse)
        engine = AggregationEngine(dataset)
        for cuboid in enumerate_cuboids(dataset.schema.n_attributes):
            _assert_aggregates_equal(engine.aggregate(cuboid), dataset.aggregate(cuboid))

    @given(
        sizes=st.lists(st.integers(2, 3), min_size=2, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_property(self, sizes, seed):
        dataset = _random_dataset(tuple(sizes), seed)
        engine = AggregationEngine(dataset)
        engine.prepare(range(dataset.schema.n_attributes))
        for cuboid in enumerate_cuboids(dataset.schema.n_attributes):
            _assert_aggregates_equal(engine.aggregate(cuboid), dataset.aggregate(cuboid))

    def test_aggregate_is_cached(self, fig7_dataset):
        engine = AggregationEngine(fig7_dataset)
        first = engine.aggregate(Cuboid([0, 1]))
        assert engine.aggregate(Cuboid([0, 1])) is first

    def test_aggregate_with_labels_matches_relabelled_naive(self):
        dataset = _random_dataset((3, 3, 2), 7)
        engine = AggregationEngine(dataset)
        rng = np.random.default_rng(8)
        other_labels = rng.random(dataset.n_rows) < 0.3
        relabelled = dataset.with_labels(other_labels)
        for cuboid in enumerate_cuboids(dataset.schema.n_attributes):
            _assert_aggregates_equal(
                engine.aggregate_with_labels(cuboid, other_labels),
                relabelled.aggregate(cuboid),
            )


class TestPrepare:
    def test_prepare_empty_is_noop(self, fig7_dataset):
        assert AggregationEngine(fig7_dataset).prepare([]) is None

    def test_prepare_prefetches_small_lattice(self):
        """A small attribute set is aggregated whole in one batched pass."""
        dataset = _random_dataset((3, 4, 2), 17, sparse=True)
        engine = AggregationEngine(dataset)
        engine.prepare([0, 1, 2])
        lattice = [
            subset
            for layer in (1, 2, 3)
            for subset in itertools.combinations(range(3), layer)
        ]
        assert all(subset in engine._aggregates for subset in lattice)
        for subset in lattice:
            _assert_aggregates_equal(
                engine.aggregate(Cuboid(subset)), dataset.aggregate(Cuboid(subset))
            )

    def test_wide_lattice_is_left_to_layer_passes(self):
        """Past the prefetch bound prepare() aggregates nothing, and the
        layer passes match the leaf-level group-by, duplicated rows too."""
        rng = np.random.default_rng(11)
        schema = schema_from_sizes([4, 3, 3])
        grids = np.meshgrid(*[np.arange(s) for s in schema.sizes], indexing="ij")
        full_codes = np.stack([g.reshape(-1) for g in grids], axis=1)
        codes = full_codes[rng.integers(0, schema.n_leaves, size=3 * schema.n_leaves)]
        m = codes.shape[0]
        dataset = FineGrainedDataset(
            schema, codes, rng.uniform(1, 10, m), rng.uniform(1, 10, m), rng.random(m) < 0.4
        )
        engine = AggregationEngine(dataset)
        engine._MAX_PREFETCH_CUBOIDS = 0
        engine.prepare([0, 1, 2])
        assert not engine._aggregates
        for layer in (1, 2, 3):
            cuboids = [Cuboid(s) for s in itertools.combinations(range(3), layer)]
            for cuboid, aggregate in zip(cuboids, engine.layer_aggregates(cuboids)):
                _assert_aggregates_equal(aggregate, dataset.aggregate(cuboid))

    def test_chunked_layer_passes_match_one_pass(self, monkeypatch):
        """A layer split into one-cuboid chunks aggregates like one pass."""
        dataset = _random_dataset((3, 3, 2, 2), 21)
        cuboids = [Cuboid(s) for s in itertools.combinations(range(4), 2)]
        one_pass = list(AggregationEngine(dataset).layer_aggregates(cuboids))
        monkeypatch.setattr(engine_module, "_MAX_BATCH_ELEMENTS", dataset.n_rows)
        chunked = list(AggregationEngine(dataset).layer_aggregates(cuboids))
        assert len(chunked) == len(one_pass)
        for a, b in zip(chunked, one_pass):
            _assert_aggregates_equal(a, b)


class TestInvertedIndex:
    def test_rows_of_matches_mask(self):
        dataset = _random_dataset((3, 2, 3), 5, sparse=True)
        engine = AggregationEngine(dataset)
        schema = dataset.schema
        combos = [
            AttributeCombination([schema.decode(0, 1), None, None]),
            AttributeCombination([None, schema.decode(1, 0), schema.decode(2, 2)]),
            AttributeCombination([None, None, None]),
        ]
        for combination in combos:
            expected = np.flatnonzero(dataset.mask_of(combination))
            np.testing.assert_array_equal(engine.rows_of(combination), expected)

    def test_group_rows_matches_rows_of(self):
        dataset = _random_dataset((3, 2, 3), 9, sparse=True)
        engine = AggregationEngine(dataset)
        aggregate = engine.aggregate(Cuboid([0, 2]))
        for index in range(len(aggregate)):
            np.testing.assert_array_equal(
                engine.group_rows(aggregate, index),
                engine.rows_of(aggregate.combination(index)),
            )

    def test_rows_of_empty_support(self, tiny_schema):
        dataset = FineGrainedDataset(
            tiny_schema, np.array([[0, 0]]), np.ones(1), np.ones(1)
        )
        engine = AggregationEngine(dataset)
        missing = AttributeCombination([tiny_schema.decode(0, 1), None])
        assert engine.rows_of(missing).size == 0


class TestWarmClone:
    def test_clone_shares_keys_and_recomputes_labels(self):
        dataset = _random_dataset((3, 3, 2), 31)
        engine = AggregationEngine(dataset)
        engine.prepare(range(3))
        for cuboid in enumerate_cuboids(3):
            engine.aggregate(cuboid)

        rng = np.random.default_rng(32)
        fresh = FineGrainedDataset(
            dataset.schema,
            dataset.codes,
            rng.uniform(1, 10, dataset.n_rows),
            rng.uniform(1, 10, dataset.n_rows),
            rng.random(dataset.n_rows) < 0.5,
        )
        clone = engine.warm_clone(fresh)
        assert clone._keys is engine._keys
        for cuboid in enumerate_cuboids(3):
            _assert_aggregates_equal(clone.aggregate(cuboid), fresh.aggregate(cuboid))
        assert engine_for(fresh) is clone

    def test_clone_rejects_different_codes(self):
        dataset = _random_dataset((2, 2), 41)
        other = _random_dataset((2, 2), 42, sparse=True)
        with pytest.raises(ValueError):
            AggregationEngine(dataset).warm_clone(other)

    def test_warm_refresh_is_bitwise_equal_to_cold(self):
        """A warm-clone chain must reproduce cold aggregates *bitwise*.

        The batch execution layer keeps one warm engine per (worker,
        schema) and asserts batch results identical to serial runs, so the
        warm refresh may not drift from the cold leaf-level summation
        order even in the last float bit — exact array equality, not
        allclose.
        """
        rng = np.random.default_rng(51)
        previous_engine = None
        base = _random_dataset((4, 3, 3), 50)
        for __ in range(4):
            fresh = FineGrainedDataset(
                base.schema,
                base.codes,
                rng.uniform(1, 10, base.n_rows),
                rng.uniform(1, 10, base.n_rows),
                rng.random(base.n_rows) < 0.3,
            )
            if previous_engine is None:
                engine = AggregationEngine(fresh)
            else:
                engine = previous_engine.warm_clone(fresh)
            engine.prepare(range(3))
            cold = AggregationEngine(fresh)
            cold.prepare(range(3))
            for cuboid in enumerate_cuboids(3):
                warm_aggregate = engine.aggregate(cuboid)
                cold_aggregate = cold.aggregate(cuboid)
                np.testing.assert_array_equal(
                    warm_aggregate.anomalous_support, cold_aggregate.anomalous_support
                )
                np.testing.assert_array_equal(warm_aggregate.v_sum, cold_aggregate.v_sum)
                np.testing.assert_array_equal(warm_aggregate.f_sum, cold_aggregate.f_sum)
            previous_engine = engine


class TestDefaultEnginePath:
    def test_search_uses_shared_engine_by_default(self, fig7_dataset, monkeypatch):
        """Tier-1 smoke check: the default search path goes through the engine."""
        calls = []
        original = AggregationEngine.aggregate

        def counting(self, cuboid):
            calls.append(cuboid)
            return original(self, cuboid)

        monkeypatch.setattr(AggregationEngine, "aggregate", counting)
        outcome = layerwise_topdown_search(fig7_dataset, range(3))
        assert calls, "default search must aggregate through AggregationEngine"
        assert outcome.candidates

    def test_engine_for_returns_same_instance(self, fig7_dataset):
        assert engine_for(fig7_dataset) is engine_for(fig7_dataset)

    def test_naive_engine_matches_search_results(self, fig7_dataset):
        indices = range(fig7_dataset.schema.n_attributes)
        fast = layerwise_topdown_search(fig7_dataset, indices)
        naive = layerwise_topdown_search(
            fig7_dataset, indices, engine=NaiveAggregationEngine(fig7_dataset)
        )
        assert fast.candidates == naive.candidates
        assert fast.stats == naive.stats


class TestCandidateIndex:
    def test_matches_linear_ancestor_scan(self, example_schema):
        dataset = make_labelled_dataset(example_schema, ["(a1, *, *)", "(a2, b2, *)"])
        aggregate = dataset.aggregate(Cuboid([0, 1, 2]))
        combos = aggregate.combinations()
        stored = [
            AttributeCombination.parse("(a1, *, *)"),
            AttributeCombination.parse("(a2, b2, *)"),
        ]
        index = CandidateIndex()
        for combination in stored:
            _add(index, combination)
        assert len(index) == 2
        for combination in combos:
            expected = any(s.is_ancestor_of(combination) for s in stored)
            assert _has_ancestor(index, combination) == expected

    def test_same_layer_never_matches(self):
        index = CandidateIndex()
        combo = AttributeCombination.parse("(a1, *, *)")
        _add(index, combo)
        assert not _has_ancestor(index, combo)
        assert not _has_ancestor(index, AttributeCombination.parse("(a2, *, *)"))


def _add(index, combination):
    spec = combination.specified_indices
    index.add_entry(spec, tuple(combination.values[i] for i in spec))


def _has_ancestor(index, combination):
    values = combination.values
    return index.has_ancestor_entry(
        frozenset(combination.specified_indices), lambda i: values[i]
    )
