"""The ``batch-localize`` configuration (:meth:`FleetConfig.one_batch`).

``repro batch-localize`` admits a whole bundle to the fleet at once and
runs it on one inline worker per layout, case by case on the worker's
``DeltaSession``.  The rows must equal the serial ``run_cases`` loop:
case ids, ranked predictions, groups and input order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import RAPMiner, obs
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema, schema_from_sizes
from repro.experiments.presets import fast_preset
from repro.experiments.runner import run_cases
from repro.fleet import FleetConfig, fleet_localize


def make_cases(n_cases=4):
    return generate_rapmd(
        cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=n_cases, n_days=2, seed=9)
    )


def rowset(evaluation):
    return [
        (r.case_id, r.predicted, r.true_raps, r.group) for r in evaluation.results
    ]


@pytest.fixture(scope="module")
def cases():
    return make_cases()


@pytest.fixture(scope="module")
def serial_eval(cases):
    return run_cases(RAPMiner(), cases, k=3)


class TestBatchLocalize:
    def test_matches_serial(self, cases, serial_eval):
        evaluation = fleet_localize(
            RAPMiner(), cases, config=FleetConfig.one_batch(k=3)
        )
        assert rowset(evaluation) == rowset(serial_eval)

    def test_k_from_truth(self, cases):
        want = run_cases(RAPMiner(), cases, k_from_truth=True)
        got = fleet_localize(
            RAPMiner(),
            cases,
            config=FleetConfig.one_batch(k_from_truth=True),
        )
        assert rowset(got) == rowset(want)

    def test_empty_case_list(self):
        evaluation = fleet_localize(
            RAPMiner(), [], config=FleetConfig.one_batch(k=3)
        )
        assert evaluation.results == []

    def test_randomized_schema_grid(self):
        rng = np.random.default_rng(4)
        for trial in range(2):
            sizes = [int(rng.integers(2, 6)) for _ in range(4)]
            grid_cases = generate_rapmd(
                schema_from_sizes(sizes),
                RAPMDConfig(n_cases=4, n_days=1, seed=30 + trial),
            )
            want = run_cases(RAPMiner(), grid_cases, k_from_truth=True)
            got = fleet_localize(
                RAPMiner(),
                grid_cases,
                config=FleetConfig.one_batch(k_from_truth=True),
            )
            assert rowset(got) == rowset(want), sizes

    def test_search_counters_match_serial(self, cases):
        with obs.capture() as collector:
            fleet_localize(
                RAPMiner(), cases, config=FleetConfig.one_batch(k=3)
            )
        # Every case runs on the worker's session, none on the stacked kernel.
        assert collector.metrics.family_total("fleet_engine_builds_total") == len(
            cases
        )
        assert collector.metrics.value("stacked_batch_cases_total") == 0.0
        with obs.capture() as serial_collector:
            run_cases(RAPMiner(), cases, k=3)
        for name in (
            "search_cuboids_total",
            "search_combinations_total",
            "search_candidates_total",
            "search_criteria3_pruned_total",
        ):
            assert collector.metrics.value(name) == serial_collector.metrics.value(
                name
            ), name

    def test_fast_preset(self):
        preset_cases = fast_preset(seed=1).rapmd_cases()
        want = run_cases(RAPMiner(), preset_cases, k=5)
        got = fleet_localize(
            RAPMiner(),
            preset_cases,
            config=FleetConfig.one_batch(k=5),
        )
        assert rowset(got) == rowset(want)
