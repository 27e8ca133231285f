"""Independent oracle for the aggregation kernels (``repro.core.kernels``).

Each kernel folds many cuboids (or many cases) into one pass.  The
reference here does the plain thing instead: one ``np.bincount`` per
cuboid and per case, over keys built attribute by attribute, in leaf-row
order.  The kernels must match it bit for bit — float lanes are compared
through ``view(np.int64)`` — because every path relies on a lane adding
each bucket in leaf-row order, as a per-cuboid pass does.
"""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import kernels
from repro.core.classification_power import classification_power
from repro.data.dataset import FineGrainedDataset
from repro.data.schema import schema_from_sizes


# -- reference ----------------------------------------------------------------


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if got.dtype.kind == "f":
        got, want = got.view(np.int64), want.view(np.int64)
    np.testing.assert_array_equal(got, want)


def linear_keys(codes, sizes, subset):
    """Row-major keys of the cuboid over *subset*, and its capacity."""
    keys = np.zeros(codes.shape[0], dtype=np.int64)
    capacity = 1
    for attr in subset:
        keys = keys * sizes[attr] + codes[:, attr]
        capacity *= sizes[attr]
    return keys, capacity


def plan(sizes, cuboids):
    """The kernels' ``(stride_matrix, offsets, total)`` for *cuboids*."""
    stride_matrix = np.zeros((len(sizes), len(cuboids)), dtype=np.int64)
    offsets = np.zeros(len(cuboids), dtype=np.int64)
    total = 0
    for j, subset in enumerate(cuboids):
        stride = 1
        for attr in reversed(subset):
            stride_matrix[attr, j] = stride
            stride *= sizes[attr]
        offsets[j] = total
        total += stride
    return stride_matrix, offsets, total


def reference_lanes(codes, sizes, cuboids, weights=None, rows=None):
    """Per-cuboid bincounts concatenated in cuboid order."""
    lanes = []
    for subset in cuboids:
        keys, capacity = linear_keys(codes, sizes, subset)
        if rows is not None:
            keys = keys[rows]
        lanes.append(np.bincount(keys, weights=weights, minlength=capacity))
    return np.concatenate(lanes)


# -- inputs -------------------------------------------------------------------


def spread_floats(rng, n):
    """Values over many magnitudes, so a changed summation order shows."""
    return rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)


@st.composite
def tables(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.stack(
        [rng.integers(0, size, n_rows) for size in sizes], axis=1
    ).astype(np.int64).reshape(n_rows, len(sizes))
    lattice = [
        subset
        for layer in range(1, len(sizes) + 1)
        for subset in itertools.combinations(range(len(sizes)), layer)
    ]
    cuboids = draw(
        st.lists(st.sampled_from(lattice), min_size=1, max_size=6, unique=True)
    )
    return sizes, codes, cuboids, rng


# -- kernels against the reference -------------------------------------------


@given(tables(), st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_fused_batch(table, label_p):
    sizes, codes, cuboids, rng = table
    n_rows = codes.shape[0]
    labels = rng.random(n_rows) < label_p
    stride_matrix, offsets, total = plan(sizes, cuboids)
    support, anomalous = kernels.fused_batch(
        codes, stride_matrix, offsets, total, np.flatnonzero(labels)
    )
    assert_bitwise(support, reference_lanes(codes, sizes, cuboids))
    assert_bitwise(
        anomalous, reference_lanes(codes, sizes, cuboids, rows=labels)
    )


@given(tables())
@settings(max_examples=60, deadline=None)
def test_count_and_weighted_bincount(table):
    sizes, codes, cuboids, rng = table
    keys, capacity = linear_keys(codes, sizes, cuboids[-1])
    weights = spread_floats(rng, keys.size)
    assert_bitwise(
        kernels.count_bincount(keys, capacity),
        np.bincount(keys, minlength=capacity),
    )
    # float64 even without rows, where np.bincount itself returns int64.
    assert_bitwise(
        kernels.weighted_bincount(keys, weights, capacity),
        np.bincount(keys, weights=weights, minlength=capacity).astype(float),
    )


@given(tables(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_stacked_anomalous(table, label_ps):
    sizes, codes, cuboids, rng = table
    n_rows = codes.shape[0]
    per_case = [np.flatnonzero(rng.random(n_rows) < p) for p in label_ps]
    key_columns, capacities = zip(
        *(linear_keys(codes, sizes, subset) for subset in cuboids)
    )
    offsets = np.cumsum((0,) + capacities[:-1]).tolist()
    total = int(sum(capacities))
    got = kernels.stacked_anomalous(
        list(key_columns),
        offsets,
        total,
        np.concatenate(per_case),
        [rows.size for rows in per_case],
    )
    want = np.stack(
        [reference_lanes(codes, sizes, cuboids, rows=rows) for rows in per_case]
    )
    assert_bitwise(got, want)


@given(tables(), st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_delta_patch(table, flip_p):
    sizes, codes, cuboids, rng = table
    n_rows = codes.shape[0]
    flips = rng.random(n_rows) < flip_p
    gained = flips & (rng.random(n_rows) < 0.5)
    lost = flips & ~gained
    stride_matrix, offsets, total = plan(sizes, cuboids)
    anomalous = kernels.delta_patch(
        codes, stride_matrix, offsets, total, gained, lost
    )
    assert_bitwise(
        anomalous,
        reference_lanes(codes, sizes, cuboids, rows=gained)
        - reference_lanes(codes, sizes, cuboids, rows=lost),
    )


# -- dtype and degenerate edges -----------------------------------------------


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int32])
def test_narrow_and_unsigned_keys(dtype):
    rng = np.random.default_rng(11)
    wide = rng.integers(0, 50, size=200)
    narrow = wide.astype(dtype)
    weights = spread_floats(rng, 200)
    assert_bitwise(
        kernels.count_bincount(narrow, 50), np.bincount(wide, minlength=50)
    )
    assert_bitwise(
        kernels.weighted_bincount(narrow, weights, 50),
        np.bincount(wide, weights=weights, minlength=50),
    )
    rows = np.flatnonzero(rng.random(200) < 0.3)
    assert_bitwise(
        kernels.stacked_anomalous([narrow], [0], 50, rows, [rows.size]),
        np.bincount(wide[rows], minlength=50).reshape(1, 50),
    )


def test_zero_rows():
    empty = np.zeros(0, dtype=np.int64)
    assert_bitwise(kernels.count_bincount(empty, 6), np.zeros(6, dtype=np.int64))
    assert_bitwise(
        kernels.weighted_bincount(empty, np.zeros(0), 6), np.zeros(6)
    )
    sizes, cuboids = (3, 2), [(0,), (1,), (0, 1)]
    codes = np.zeros((0, 2), dtype=np.int64)
    stride_matrix, offsets, total = plan(sizes, cuboids)
    lanes = kernels.fused_batch(codes, stride_matrix, offsets, total, empty)
    # Both lanes are np.bincount's empty-input zeros (int64), exactly as
    # one bincount per cuboid returns them.
    for lane in lanes:
        assert_bitwise(lane, reference_lanes(codes, sizes, cuboids))


def test_empty_case_inside_a_stack():
    keys = np.array([0, 1, 2, 1], dtype=np.int64)
    # Case 0 flags rows 0 and 3, case 1 flags nothing, case 2 flags row 2.
    rows_cat = np.array([0, 3, 2], dtype=np.int64)
    got = kernels.stacked_anomalous([keys], [0], 3, rows_cat, [2, 0, 1])
    assert_bitwise(
        got, np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=np.int64)
    )


def test_all_anomalous_labels():
    rng = np.random.default_rng(23)
    sizes = (4, 3, 3, 2)
    codes = np.stack([rng.integers(0, s, 120) for s in sizes], axis=1)
    v, f = spread_floats(rng, 120), spread_floats(rng, 120)
    cuboids = [(0,), (1, 2), (0, 1, 2, 3)]
    stride_matrix, offsets, total = plan(sizes, cuboids)
    support, anomalous = kernels.fused_batch(
        codes, stride_matrix, offsets, total, np.arange(120)
    )
    assert_bitwise(anomalous, support)
    assert_bitwise(support, reference_lanes(codes, sizes, cuboids))
    # Info(D) = 0 when every leaf is anomalous: CP is 0 for every attribute.
    dataset = FineGrainedDataset(
        schema_from_sizes(list(sizes)), codes, v, f, np.ones(120, dtype=bool)
    )
    assert [classification_power(dataset, i) for i in range(4)] == [0.0] * 4


def test_delta_patch_gains_and_loses_labels():
    codes = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [0, 1]], dtype=np.int64)
    gained = np.array([True, False, False, True, False])
    lost = np.array([False, True, False, False, True])
    sizes = (2, 2)
    cuboids = [(0,), (1,), (0, 1)]
    stride_matrix, offsets, total = plan(sizes, cuboids)
    anomalous = kernels.delta_patch(
        codes, stride_matrix, offsets, total, gained, lost
    )
    # (0,): element 0 gains one row and loses two, element 1 gains one;
    # (1,): element 0 gains one, element 1 gains one and loses two;
    # (0, 1): 00 and 11 gain one each, 01 loses two, 10 is untouched.
    assert_bitwise(
        anomalous, np.array([-1, 1, 1, -1, 1, -2, 0, 1], dtype=np.int64)
    )


def test_info_names_the_kernel_set():
    assert kernels.info() == {"backend": "numpy"}
