"""Micro-batches through the case-stacked kernel (the ``batch-localize`` path).

``repro batch-localize`` submits a whole bundle to the fleet as one
micro-batch per layout, which hands it to ``RAPMiner.run_batch``.  The
rows must equal the serial ``run_cases`` loop: case ids, ranked
predictions, groups and input order.
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
from repro.resilience.chaos import WorkerCrash


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


class TestMicrobatch:
    def test_matches_serial(self, cases, serial_eval):
        evaluation = fleet_localize(
            RAPMiner(), cases, config=FleetConfig.one_batch(len(cases), k=3)
        )
        assert rowset(evaluation) == rowset(serial_eval)

    def test_k_from_truth(self, cases):
        want = run_cases(RAPMiner(), cases, k_from_truth=True)
        got = fleet_localize(
            RAPMiner(),
            cases,
            config=FleetConfig.one_batch(len(cases), k_from_truth=True),
        )
        assert rowset(got) == rowset(want)

    def test_empty_case_list(self):
        evaluation = fleet_localize(
            RAPMiner(), [], config=FleetConfig.one_batch(0, k=3)
        )
        assert evaluation.results == []

    def test_amortized_seconds_positive_and_uniform(self, cases):
        evaluation = fleet_localize(
            RAPMiner(), cases, config=FleetConfig.one_batch(len(cases), k=3)
        )
        seconds = {r.seconds for r in evaluation.results}
        assert len(seconds) == 1  # one amortized clock for the fused batch
        assert seconds.pop() > 0.0

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
                config=FleetConfig.one_batch(len(grid_cases), k_from_truth=True),
            )
            assert rowset(got) == rowset(want), sizes

    def test_method_without_run_batch_falls_back(self, cases, serial_eval):
        class NoBatch:
            name = "NoBatch"

            def localize(self, dataset, k=None):
                return RAPMiner().run(dataset, k).patterns

        with obs.capture() as collector:
            evaluation = fleet_localize(
                NoBatch(), cases, config=FleetConfig.one_batch(len(cases), k=3)
            )
        assert rowset(evaluation) == rowset(serial_eval)
        assert collector.metrics.value("stacked_fallback_cases_total") == len(cases)

    def test_emits_stacked_counters(self, cases):
        with obs.capture() as collector:
            fleet_localize(
                RAPMiner(), cases, config=FleetConfig.one_batch(len(cases), k=3)
            )
        assert collector.metrics.value("stacked_batch_cases_total") == len(cases)
        assert collector.metrics.value("stacked_groups_total") >= 1
        assert collector.metrics.value("stacked_layers_fused_total") >= 1
        # Per-case search counters keep their serial totals.
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

    def test_fused_crash_charges_every_member_once(self, cases, serial_eval):
        class CrashFirstBatch(RAPMiner):
            crashes = 0

            def run_batch(self, datasets, **kwargs):
                if not CrashFirstBatch.crashes:
                    CrashFirstBatch.crashes += 1
                    raise WorkerCrash("fused batch crashed")
                return super().run_batch(datasets, **kwargs)

        with obs.capture() as collector:
            evaluation = fleet_localize(
                CrashFirstBatch(), cases, config=FleetConfig.one_batch(len(cases), k=3)
            )
        assert rowset(evaluation) == rowset(serial_eval)
        assert collector.metrics.value("fleet_requeues_total") == len(cases)
        assert collector.metrics.value("fleet_errors_total") == 0.0

    def test_fast_preset(self):
        preset_cases = fast_preset(seed=1).rapmd_cases()
        want = run_cases(RAPMiner(), preset_cases, k=5)
        got = fleet_localize(
            RAPMiner(),
            preset_cases,
            config=FleetConfig.one_batch(len(preset_cases), k=5),
        )
        assert rowset(got) == rowset(want)
