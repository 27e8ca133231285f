"""Tests for the evaluation runner."""

import pytest

from repro.core.attribute import AttributeCombination
from repro.core.miner import RAPMiner
from repro.data.injection import LocalizationCase
from repro.experiments.runner import MethodEvaluation, run_cases
from tests.conftest import make_labelled_dataset


class FixedLocalizer:
    """Returns a canned ranking regardless of input."""

    name = "fixed"

    def __init__(self, patterns):
        self.patterns = [AttributeCombination.parse(p) for p in patterns]
        self.calls = []

    def localize(self, dataset, k=None):
        self.calls.append(k)
        return self.patterns if k is None else self.patterns[:k]


@pytest.fixture
def cases(example_schema):
    ds1 = make_labelled_dataset(example_schema, ["(a1, *, *)"])
    ds2 = make_labelled_dataset(example_schema, ["(a2, b2, *)"])
    return [
        LocalizationCase("c1", ds1, (AttributeCombination.parse("(a1, *, *)"),),
                         metadata={"group": (1, 1)}),
        LocalizationCase("c2", ds2, (AttributeCombination.parse("(a2, b2, *)"),),
                         metadata={"group": (2, 1)}),
    ]


class TestRunCases:
    def test_runs_every_case(self, cases):
        evaluation = run_cases(RAPMiner(), cases)
        assert len(evaluation.results) == 2
        assert evaluation.method_name == "RAPMiner"

    def test_k_from_truth_requests_truth_count(self, cases):
        method = FixedLocalizer(["(a1, *, *)"])
        run_cases(method, cases, k_from_truth=True)
        assert method.calls == [1, 1]

    def test_explicit_k_passed(self, cases):
        method = FixedLocalizer(["(a1, *, *)"])
        run_cases(method, cases, k=5)
        assert method.calls == [5, 5]

    def test_timings_recorded(self, cases):
        evaluation = run_cases(RAPMiner(), cases)
        assert all(r.seconds >= 0.0 for r in evaluation.results)

    def test_groups_propagated(self, cases):
        evaluation = run_cases(RAPMiner(), cases)
        assert evaluation.groups() == [(1, 1), (2, 1)]


class TestAggregations:
    def test_perfect_f1(self, cases):
        evaluation = run_cases(RAPMiner(), cases, k_from_truth=True)
        assert evaluation.mean_f1 == pytest.approx(1.0)

    def test_recall_at_k(self, cases):
        method = FixedLocalizer(["(a1, *, *)"])  # right for case 1 only
        evaluation = run_cases(method, cases, k=3)
        assert evaluation.recall_at(3) == pytest.approx(0.5)

    def test_by_group_split(self, cases):
        evaluation = run_cases(RAPMiner(), cases, k_from_truth=True)
        split = evaluation.by_group()
        assert set(split) == {(1, 1), (2, 1)}
        assert all(len(e.results) == 1 for e in split.values())

    def test_group_mean_f1(self, cases):
        method = FixedLocalizer(["(a1, *, *)"])
        evaluation = run_cases(method, cases, k_from_truth=True)
        means = evaluation.group_mean_f1()
        assert means[(1, 1)] == pytest.approx(1.0)
        assert means[(2, 1)] == pytest.approx(0.0)

    def test_empty_evaluation(self):
        evaluation = MethodEvaluation("empty")
        assert evaluation.mean_f1 == 0.0
        assert evaluation.mean_seconds == 0.0
        assert evaluation.recall_at(3) == 0.0


class TestRunCasesWorkers:
    def test_default_is_serial(self, cases):
        method = FixedLocalizer(["(a1, *, *)"])
        run_cases(method, cases, k=1)
        # The serial path invokes the method in-process: calls are visible.
        assert method.calls == [1, 1]
