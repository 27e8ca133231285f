"""Shared fixtures: small schemas and hand-checkable labelled datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribute import AttributeCombination, AttributeSchema
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import LocalizationCase
from repro.data.io import case_to_dict
from repro.data.schema import paper_example_schema, schema_from_sizes


@pytest.fixture
def example_schema() -> AttributeSchema:
    """The paper's (3, 2, 2) worked-example schema (Fig. 6 / Table V)."""
    return paper_example_schema()


@pytest.fixture
def tiny_schema() -> AttributeSchema:
    """2 attributes x (2, 2): small enough to enumerate everything by hand."""
    return schema_from_sizes([2, 2])


@pytest.fixture
def four_attr_schema() -> AttributeSchema:
    """4 attributes x (4, 3, 3, 2) = 72 leaves, used for brute-force checks."""
    return schema_from_sizes([4, 3, 3, 2])


def make_labelled_dataset(
    schema: AttributeSchema,
    anomalous: list,
    v_value: float = 100.0,
    seed: int = 0,
) -> FineGrainedDataset:
    """Full leaf table where leaves under any pattern in *anomalous* are flagged.

    Values are constant (plus a deterministic jitter) so tests exercise the
    label-driven code paths without incidental numeric noise; forecasts of
    anomalous leaves are inflated so deviation-based methods also see them.
    """
    rng = np.random.default_rng(seed)
    n = schema.n_leaves
    v = np.full(n, v_value) + rng.uniform(0.0, 1.0, n)
    dataset = FineGrainedDataset.full(schema, v, v.copy())
    labels = np.zeros(n, dtype=bool)
    for pattern in anomalous:
        if isinstance(pattern, str):
            pattern = AttributeCombination.parse(pattern)
        labels |= dataset.mask_of(pattern)
    f = dataset.f.copy()
    f[labels] = dataset.v[labels] / 0.6  # Dev = 0.4 for anomalous leaves
    return FineGrainedDataset(schema, dataset.codes, dataset.v, f, labels)


def list_form_dict(case: LocalizationCase) -> dict:
    """:func:`case_to_dict` with every leaf-table column as a number list.

    This is the older wire form, which hand-written request bodies and
    bundles saved before the columns were packed still use.
    """
    data = case_to_dict(case)
    dataset = case.dataset
    data["codes"] = dataset.codes.tolist()
    data["v"] = dataset.v.tolist()
    data["f"] = dataset.f.tolist()
    data["labels"] = dataset.labels.astype(int).tolist()
    return data


@pytest.fixture
def example_dataset(example_schema) -> FineGrainedDataset:
    """Fig. 6 scenario: ``(a1, *, *)`` is the only RAP."""
    return make_labelled_dataset(example_schema, ["(a1, *, *)"])


@pytest.fixture
def fig7_dataset(example_schema) -> FineGrainedDataset:
    """Fig. 7 scenario: RAPs are ``(a1, *, *)`` and ``(a2, b2, *)``."""
    return make_labelled_dataset(example_schema, ["(a1, *, *)", "(a2, b2, *)"])
