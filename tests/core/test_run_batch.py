"""``RAPMiner.run_batch`` over repeated calls on one miner.

Each call groups its cases by layout and case-stacks every group.  Every
result must equal a stateless ``RAPMiner().run`` on a fresh copy of the
case, whatever ran on the miner before, and no input dataset may keep an
engine installed once the call returns.
"""

from __future__ import annotations

import pytest

from repro.core import AggregationEngine, RAPMiner, RAPMinerConfig
from repro.data.dataset import FineGrainedDataset
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import schema_from_sizes


def make_datasets(n_cases, sizes, seed):
    cases = generate_rapmd(
        schema_from_sizes(list(sizes)),
        RAPMDConfig(n_cases=n_cases, n_days=1, seed=seed),
    )
    return [case.dataset for case in cases]


def fresh_copy(dataset):
    """The dataset with no engine and no arrays shared with any other run."""
    return FineGrainedDataset(
        dataset.schema,
        dataset.codes.copy(),
        dataset.v.copy(),
        dataset.f.copy(),
        dataset.labels.copy(),
    )


def signature(result):
    return (
        [
            (c.combination, c.confidence, c.support, c.anomalous_support, c.layer)
            for c in result.candidates
        ],
        result.stats.stop_reason,
        result.stats.deepest_layer_visited,
        None if result.deletion is None else result.deletion.kept_indices,
    )


def assert_equals_stateless(datasets, results, config=None, k=None):
    assert len(results) == len(datasets)
    for dataset, result in zip(datasets, results):
        want = RAPMiner(config).run(fresh_copy(dataset), k)
        assert signature(result) == signature(want)


def carries_engine(dataset):
    return any(isinstance(v, AggregationEngine) for v in vars(dataset).values())


@pytest.fixture(scope="module")
def layout_a():
    return make_datasets(4, (4, 3, 3, 2), seed=5)


@pytest.fixture(scope="module")
def layout_b():
    return make_datasets(3, (3, 4, 2, 3), seed=6)


class TestRunBatch:
    @pytest.mark.parametrize(
        "config",
        [
            RAPMinerConfig(),
            RAPMinerConfig(enable_attribute_deletion=False),
            RAPMinerConfig(early_stop=False, max_layer=2),
        ],
    )
    def test_one_miner_across_calls_and_layouts(self, layout_a, layout_b, config):
        miner = RAPMiner(config)
        for datasets in (layout_a, layout_b, layout_a[1:], layout_b + layout_a):
            assert_equals_stateless(
                datasets, miner.run_batch(datasets, k=3), config, k=3
            )

    def test_run_calls_between_batches(self, layout_a, layout_b):
        miner = RAPMiner()
        for datasets, single in ((layout_a, layout_a[-1]), (layout_b, layout_a[0])):
            assert_equals_stateless(datasets, miner.run_batch(datasets))
            # run() installs its own engine on the dataset; the next
            # batch must neither reuse it wrongly nor be disturbed by it.
            assert_equals_stateless([single], [miner.run(single)])
        assert_equals_stateless(layout_a, miner.run_batch(layout_a))

    def test_no_input_dataset_keeps_an_engine(self, layout_a, layout_b):
        datasets = [fresh_copy(d) for d in layout_a + layout_b]
        RAPMiner().run_batch(datasets)
        assert not any(carries_engine(d) for d in datasets)
