"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper at the
``fast`` preset scale (the relationships, not the absolute numbers, are the
reproduction target — see EXPERIMENTS.md for a paper-scale run).  Dataset
generation is session-scoped so pytest-benchmark timings measure the
localizers, not the generators.

:func:`assert_bit_identical` is the equivalence gate every warm or
streaming path's benchmark asserts against a stateless run.
"""

from __future__ import annotations

import pytest

from repro.experiments.presets import fast_preset


@pytest.fixture(scope="session")
def preset():
    return fast_preset(seed=1)


@pytest.fixture(scope="session")
def squeeze_cases(preset):
    return preset.squeeze_cases()


@pytest.fixture(scope="session")
def rapmd_cases(preset):
    return preset.rapmd_cases()


def assert_bit_identical(candidates, reference):
    """Full-field candidate equality, confidence floats included."""
    assert len(candidates) == len(reference)
    for got, want in zip(candidates, reference):
        assert got.combination == want.combination
        assert got.confidence == want.confidence  # bitwise: same float
        assert got.layer == want.layer
        assert got.support == want.support
        assert got.anomalous_support == want.anomalous_support
