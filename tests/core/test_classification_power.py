"""Tests for Classification Power and Algorithm 1 (Fig. 6, Criteria 1)."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.classification_power import (
    all_classification_powers,
    binary_entropy,
    classification_power,
    delete_redundant_attributes,
)
from repro.core.delta import DeltaConfig, DeltaSession
from repro.core.stacked import StackedCaseEngine
from repro.data.dataset import FineGrainedDataset
from repro.data.schema import schema_from_sizes
from tests.conftest import make_labelled_dataset


class TestBinaryEntropy:
    def test_extremes_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0))

    def test_symmetric(self):
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestClassificationPower:
    def test_fig6_scenario_rap_attribute_has_cp_one(self, example_dataset):
        """Splitting by A perfectly separates when (a1,*,*) is the RAP."""
        assert classification_power(example_dataset, "A") == pytest.approx(1.0)

    def test_fig6_scenario_other_attributes_near_zero(self, example_dataset):
        """B and C split anomalies evenly: no entropy reduction at all."""
        assert classification_power(example_dataset, "B") == pytest.approx(0.0, abs=1e-12)
        assert classification_power(example_dataset, "C") == pytest.approx(0.0, abs=1e-12)

    def test_cp_bounded_between_zero_and_one(self, example_schema):
        rng = np.random.default_rng(2)
        n = example_schema.n_leaves
        for seed in range(5):
            labels = np.random.default_rng(seed).random(n) < 0.3
            ds = FineGrainedDataset.full(example_schema, np.ones(n), np.ones(n), labels)
            for name in example_schema.names:
                cp = classification_power(ds, name)
                assert -1e-12 <= cp <= 1.0 + 1e-12

    def test_all_normal_gives_zero(self, example_schema):
        n = example_schema.n_leaves
        ds = FineGrainedDataset.full(example_schema, np.ones(n), np.ones(n))
        assert all(v == 0.0 for v in all_classification_powers(ds).values())

    def test_all_anomalous_gives_zero(self, example_schema):
        n = example_schema.n_leaves
        ds = FineGrainedDataset.full(
            example_schema, np.ones(n), np.ones(n), np.ones(n, dtype=bool)
        )
        assert all(v == 0.0 for v in all_classification_powers(ds).values())

    def test_empty_dataset_gives_zero(self, tiny_schema):
        ds = FineGrainedDataset(
            tiny_schema, np.empty((0, 2), dtype=np.int64), np.empty(0), np.empty(0)
        )
        assert classification_power(ds, 0) == 0.0

    def test_accepts_attribute_index(self, example_dataset):
        assert classification_power(example_dataset, 0) == pytest.approx(1.0)

    def test_two_raps_both_attributes_informative(self, fig7_dataset):
        """Fig. 7: RAPs (a1,*,*) and (a2,b2,*) make both A and B informative."""
        cps = all_classification_powers(fig7_dataset)
        assert cps["A"] > 0.1
        assert cps["B"] > 0.01
        assert cps["C"] == pytest.approx(0.0, abs=1e-9)


class TestAlgorithm1:
    def test_deletes_unrelated_attributes(self, example_dataset):
        result = delete_redundant_attributes(example_dataset, t_cp=0.02)
        assert result.kept_names(example_dataset) == ("A",)
        assert set(result.deleted_names(example_dataset)) == {"B", "C"}

    def test_kept_sorted_by_cp_descending(self, fig7_dataset):
        result = delete_redundant_attributes(fig7_dataset, t_cp=0.001)
        cps = result.cp_values
        kept = result.kept_names(fig7_dataset)
        assert list(kept) == sorted(kept, key=lambda n: cps[n], reverse=True)

    def test_threshold_zero_keeps_positive_cp_only(self, example_dataset):
        result = delete_redundant_attributes(example_dataset, t_cp=0.0)
        assert result.kept_names(example_dataset) == ("A",)

    def test_degenerate_all_below_threshold_keeps_everything(self, example_schema):
        n = example_schema.n_leaves
        ds = FineGrainedDataset.full(example_schema, np.ones(n), np.ones(n))
        result = delete_redundant_attributes(ds, t_cp=0.02)
        assert set(result.kept_indices) == {0, 1, 2}
        assert result.deleted_indices == ()

    def test_negative_threshold_rejected(self, example_dataset):
        with pytest.raises(ValueError):
            delete_redundant_attributes(example_dataset, t_cp=-0.1)

    def test_cp_values_cover_all_attributes(self, example_dataset):
        result = delete_redundant_attributes(example_dataset)
        assert set(result.cp_values) == {"A", "B", "C"}

    def test_larger_threshold_deletes_at_least_as_much(self, four_attr_schema):
        ds = make_labelled_dataset(four_attr_schema, ["(e0_0, *, *, *)", "(*, e1_1, e2_0, *)"])
        small = delete_redundant_attributes(ds, t_cp=0.001)
        large = delete_redundant_attributes(ds, t_cp=0.2)
        assert set(large.kept_indices) <= set(small.kept_indices)


# -- independent oracle ---------------------------------------------------------


def oracle_powers(codes, labels, sizes):
    """Eq. 1 in plain Python: dict counts per element, ``math.log``."""

    def entropy(anomalous, total):
        p = anomalous / total
        return -sum(q * math.log(q) for q in (p, 1.0 - p) if q > 0.0)

    n = len(labels)
    info_d = entropy(sum(labels), n)
    powers = []
    for attr in range(len(sizes)):
        support, anomalous = {}, {}
        for row, label in zip(codes, labels):
            element = row[attr]
            support[element] = support.get(element, 0) + 1
            anomalous[element] = anomalous.get(element, 0) + label
        info_attr = sum(
            count / n * entropy(anomalous[element], count)
            for element, count in support.items()
        )
        powers.append(0.0 if info_d == 0.0 else (info_d - info_attr) / info_d)
    return powers


@st.composite
def labelled_tables(draw):
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    n_rows = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.stack([rng.integers(0, size, n_rows) for size in sizes], axis=1)
    labels = rng.random(n_rows) < draw(st.floats(0.0, 1.0))
    dataset = FineGrainedDataset(
        schema_from_sizes(sizes), codes, rng.random(n_rows), rng.random(n_rows), labels
    )
    return dataset, codes.tolist(), [bool(x) for x in labels], sizes


class TestIndependentOracle:
    @given(labelled_tables(), st.floats(0.0, 0.5))
    @settings(max_examples=120, deadline=None)
    def test_matches_pure_python_eq1(self, table, t_cp):
        dataset, codes, labels, sizes = table
        want = oracle_powers(codes, labels, sizes)
        got = all_classification_powers(dataset)
        names = dataset.schema.names
        for name, expected in zip(names, want):
            # CP lies in [0, 1]: the absolute floor is the relative
            # tolerance at the top of that range, for CPs that cancel to ~0.
            assert math.isclose(got[name], expected, rel_tol=1e-12, abs_tol=1e-12)
        if any(abs(cp - t_cp) < 1e-9 for cp in want):
            return  # a t_cp tie: either side is within rounding
        kept = {i for i, cp in enumerate(want) if cp > t_cp} or set(range(len(sizes)))
        result = delete_redundant_attributes(dataset, t_cp)
        assert set(result.kept_indices) == kept
        assert set(result.deleted_indices) == set(range(len(sizes))) - kept

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bitwise_equal_across_serial_stacked_and_delta(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(2, 9, size=int(rng.integers(2, 5)))]
        schema = schema_from_sizes(sizes)
        n_rows = int(rng.integers(20, 200))
        codes = np.stack([rng.integers(0, s, n_rows) for s in sizes], axis=1)
        v = rng.random(n_rows)
        labels = rng.random(n_rows) < 0.2
        ticks = []
        for _ in range(6):
            labels = labels.copy()
            flips = rng.choice(n_rows, size=int(rng.integers(0, 4)), replace=False)
            labels[flips] = ~labels[flips]
            ticks.append(FineGrainedDataset(schema, codes, v, rng.random(n_rows), labels))

        def bits(powers):
            return np.array([powers[name] for name in schema.names]).view(np.int64)

        serial = [
            bits(
                all_classification_powers(
                    FineGrainedDataset(schema, codes.copy(), t.v, t.f, t.labels)
                )
            )
            for t in ticks
        ]
        stacked = StackedCaseEngine(ticks).classification_powers().view(np.int64)
        session = DeltaSession(DeltaConfig(crossover=1.0))
        for index, tick in enumerate(ticks):
            path = session.begin_tick(tick).path
            assert path == ("cold" if index == 0 else "patched")
            np.testing.assert_array_equal(bits(all_classification_powers(tick)), serial[index])
            np.testing.assert_array_equal(stacked[index], serial[index])
