"""Property-based tests on datasets, injection, and serialization."""

import json

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.attribute import AttributeCombination
from repro.core.cuboid import Cuboid, enumerate_cuboids
from repro.data.dataset import FineGrainedDataset, deviation
from repro.data.injection import InjectionConfig, inject_failures
from repro.data.io import case_from_dict, case_to_dict
from repro.data.injection import LocalizationCase
from repro.data.schema import schema_from_sizes
from tests.conftest import list_form_dict


@st.composite
def valued_datasets(draw, max_attrs=3, max_elements=3):
    sizes = draw(st.lists(st.integers(2, max_elements), min_size=2, max_size=max_attrs))
    schema = schema_from_sizes(sizes)
    n = schema.n_leaves
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    v = rng.uniform(1.0, 100.0, n)
    labels = rng.random(n) < draw(st.floats(0.0, 0.5))
    return FineGrainedDataset.full(schema, v, v * rng.uniform(0.9, 1.1, n), labels)


@st.composite
def combination_for(draw, schema):
    values = []
    for i in range(schema.n_attributes):
        values.append(draw(st.sampled_from((None,) + schema.elements(i))))
    return AttributeCombination(values)


@given(valued_datasets(), st.data())
@settings(max_examples=60, deadline=None)
def test_support_decomposes_over_children(dataset, data):
    """support(ac) = sum of support over any free attribute's children."""
    combination = data.draw(combination_for(dataset.schema))
    free = [i for i, v in enumerate(combination.values) if v is None]
    if not free:
        return
    attr = data.draw(st.sampled_from(free))
    total = 0
    for element in dataset.schema.elements(attr):
        values = list(combination.values)
        values[attr] = element
        total += dataset.support_count(AttributeCombination(values))
    assert total == dataset.support_count(combination)


@given(valued_datasets(), st.data())
@settings(max_examples=60, deadline=None)
def test_value_aggregation_decomposes(dataset, data):
    """Fig. 4 additivity: v(ac) = sum of v over children along any attribute."""
    combination = data.draw(combination_for(dataset.schema))
    free = [i for i, v in enumerate(combination.values) if v is None]
    if not free:
        return
    attr = data.draw(st.sampled_from(free))
    v_total, f_total = dataset.values_of(combination)
    v_sum = f_sum = 0.0
    for element in dataset.schema.elements(attr):
        values = list(combination.values)
        values[attr] = element
        v, f = dataset.values_of(AttributeCombination(values))
        v_sum += v
        f_sum += f
    assert abs(v_sum - v_total) < 1e-6 * max(1.0, abs(v_total))
    assert abs(f_sum - f_total) < 1e-6 * max(1.0, abs(f_total))


@given(valued_datasets(), st.data())
@settings(max_examples=60, deadline=None)
def test_confidence_is_weighted_mean_of_children(dataset, data):
    combination = data.draw(combination_for(dataset.schema))
    support = dataset.support_count(combination)
    if support == 0:
        assert dataset.confidence(combination) == 0.0
        return
    conf = dataset.confidence(combination)
    assert 0.0 <= conf <= 1.0
    assert conf * support == dataset.anomalous_support_count(combination)


@given(valued_datasets())
@settings(max_examples=40, deadline=None)
def test_aggregate_supports_sum_to_rows(dataset):
    for cuboid in enumerate_cuboids(dataset.schema.n_attributes):
        agg = dataset.aggregate(cuboid)
        assert agg.support.sum() == dataset.n_rows
        assert agg.anomalous_support.sum() == dataset.n_anomalous


@given(valued_datasets(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_injection_dev_roundtrip(dataset, seed):
    """Injected forecasts reproduce the drawn Dev through Eq. 4 exactly."""
    rng = np.random.default_rng(seed)
    cfg = InjectionConfig()
    mask_pattern = AttributeCombination(
        [dataset.schema.elements(0)[0]] + [None] * (dataset.schema.n_attributes - 1)
    )
    labelled, truth = inject_failures(dataset, [mask_pattern], rng, cfg)
    dev = deviation(labelled.v, labelled.f, cfg.epsilon)
    assert (dev[truth] > cfg.threshold()).all()
    assert (dev[~truth] <= cfg.threshold()).all()
    assert np.array_equal(labelled.labels, truth)


@given(valued_datasets())
@settings(max_examples=30, deadline=None)
def test_case_dict_roundtrip(dataset):
    case = LocalizationCase(
        case_id="prop",
        dataset=dataset,
        true_raps=(
            AttributeCombination(
                [dataset.schema.elements(0)[0]]
                + [None] * (dataset.schema.n_attributes - 1)
            ),
        ),
        metadata={"n": dataset.n_rows},
    )
    rebuilt = case_from_dict(case_to_dict(case))
    assert rebuilt.true_raps == case.true_raps
    assert np.array_equal(rebuilt.dataset.codes, dataset.codes)
    assert np.array_equal(rebuilt.dataset.labels, dataset.labels)
    assert np.allclose(rebuilt.dataset.v, dataset.v)
    assert np.allclose(rebuilt.dataset.f, dataset.f)


#: One schema per packed ``codes`` dtype; the widest attribute decides it.
CODEC_SCHEMAS = {
    "|u1": schema_from_sizes([3, 2, 4]),
    "<u2": schema_from_sizes([300, 2]),
    "<u4": schema_from_sizes([2, 65_537]),
}

#: Values a decimal list and a float parser are most likely to disagree on.
SPECIAL_FLOATS = [
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0.0,
    5e-324,  # smallest subnormal
    -2.5e-310,
    2.2250738585072014e-308,  # smallest normal
]

wire_floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL_FLOATS))


@st.composite
def codec_cases(draw):
    dtype = draw(st.sampled_from(sorted(CODEC_SCHEMAS)))
    schema = CODEC_SCHEMAS[dtype]
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    codes = np.column_stack([rng.integers(0, size, n) for size in schema.sizes])
    if n:
        codes[0] = [size - 1 for size in schema.sizes]  # the widest code travels
    v = draw(st.lists(wire_floats, min_size=n, max_size=n))
    f = draw(st.lists(wire_floats, min_size=n, max_size=n))
    dataset = FineGrainedDataset(schema, codes, v, f, rng.random(n) < 0.5)
    return dtype, LocalizationCase(case_id="codec", dataset=dataset, true_raps=())


@given(codec_cases())
@settings(max_examples=40, deadline=None)
def test_packed_and_list_columns_decode_bit_identically(drawn):
    """Both wire forms of one case decode to the same bits as the original."""
    dtype, case = drawn
    packed = case_to_dict(case)
    assert packed["codes"]["dtype"] == dtype
    original = case.dataset
    for form in (packed, list_form_dict(case)):
        decoded = case_from_dict(json.loads(json.dumps(form))).dataset
        for column in ("v", "f"):
            got = getattr(decoded, column)
            assert got.dtype == np.float64
            assert np.array_equal(
                got.view(np.int64), getattr(original, column).view(np.int64)
            )
        assert decoded.codes.dtype == np.int64
        assert np.array_equal(decoded.codes, original.codes)
        assert decoded.labels.dtype == bool
        assert np.array_equal(decoded.labels, original.labels)

