"""Supervisor tests: bit-identity, tenants, crash protocol, warm engines."""

from __future__ import annotations

import gc
import queue
import random
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.config import RAPMinerConfig
from repro.core.engine import AggregationEngine
from repro.core.miner import RAPMiner
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import LocalizationCase
from repro.data.io import case_from_dict, case_to_dict
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.experiments.runner import run_cases
from repro.fleet import FleetConfig, FleetSupervisor, fleet_localize, tenant_of
from repro.resilience.chaos import AlwaysCrashLocalizer, CrashOnceLocalizer


def make_cases(n_cases=6):
    return generate_rapmd(
        cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=n_cases, n_days=2, seed=9)
    )


@pytest.fixture(scope="module")
def cases():
    return make_cases()


@pytest.fixture(scope="module")
def serial(cases):
    return run_cases(RAPMiner(), cases, k_from_truth=True)


TENANTS = ["alpha", "beta", "alpha", "gamma", "beta", "alpha"]


class CandidateMiner(RAPMiner):
    """RAPMiner whose ``localize`` returns full candidates."""

    def localize(self, dataset, k=None):
        return self.run(dataset, k).candidates


def fresh_copy(dataset):
    """The dataset with no engine and no shared arrays."""
    return FineGrainedDataset(
        dataset.schema,
        dataset.codes.copy(),
        dataset.v.copy(),
        dataset.f.copy(),
        dataset.labels.copy(),
    )


def assert_matches_serial(evaluation, serial):
    assert [r.case_id for r in evaluation.results] == [
        r.case_id for r in serial.results
    ]
    for got, want in zip(evaluation.results, serial.results):
        assert got.error is None
        assert got.predicted == want.predicted


class TestBitIdentity:
    def test_inline_mode_matches_serial(self, cases, serial):
        evaluation = fleet_localize(
            RAPMiner(),
            cases,
            tenants=TENANTS,
            config=FleetConfig(mode="inline", k_from_truth=True),
        )
        assert_matches_serial(evaluation, serial)

    def test_thread_mode_matches_serial(self, cases, serial):
        evaluation = fleet_localize(
            RAPMiner(),
            cases,
            tenants=TENANTS,
            config=FleetConfig(mode="thread", k_from_truth=True),
        )
        assert_matches_serial(evaluation, serial)

    def test_one_worker_per_layout_matches_serial(self, cases, serial):
        evaluation = fleet_localize(
            RAPMiner(),
            cases,
            tenants=TENANTS,
            config=FleetConfig.one_batch(k_from_truth=True),
        )
        assert_matches_serial(evaluation, serial)

    def test_randomized_interleavings_match_serial(self, cases, serial):
        for seed in range(4):
            evaluation = fleet_localize(
                RAPMiner(),
                cases,
                tenants=TENANTS,
                config=FleetConfig(
                    mode="inline",
                    k_from_truth=True,
                    schedule=random.Random(seed),
                ),
            )
            assert_matches_serial(evaluation, serial)

    def test_interleaved_tenants_do_not_change_output(self, cases, serial):
        """Tenants submitting concurrently: every case still gets its
        serial answer, and each tenant's cases keep their submission order."""
        want = {r.case_id: r.predicted for r in serial.results}
        by_tenant = {t: cases[i::3] for i, t in enumerate(["alpha", "beta", "gamma"])}
        supervisor = FleetSupervisor(
            RAPMiner(), config=FleetConfig(mode="thread", k_from_truth=True)
        )
        start = threading.Barrier(len(by_tenant))

        def submit_all(tenant, own):
            start.wait()
            for case in own:
                supervisor.submit(case, tenant=tenant)

        submitters = [
            threading.Thread(target=submit_all, args=item) for item in by_tenant.items()
        ]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=30)
            assert not thread.is_alive()
        evaluation = supervisor.drain()
        assert sorted(r.case_id for r in evaluation.results) == sorted(want)
        for row in evaluation.results:
            assert row.error is None
            assert row.predicted == want[row.case_id]
        order = [r.case_id for r in evaluation.results]
        for own in by_tenant.values():
            ids = [c.case_id for c in own]
            assert sorted(ids, key=order.index) == ids


class TestTenants:
    def test_tenant_of_reads_metadata(self, cases):
        case = cases[0]
        assert tenant_of(case) == "default"
        tagged = LocalizationCase(
            case_id=case.case_id,
            dataset=case.dataset,
            true_raps=case.true_raps,
            metadata=dict(case.metadata, tenant="edge-7"),
        )
        assert tenant_of(tagged) == "edge-7"

    def test_mismatched_tenant_list_rejected(self, cases):
        with pytest.raises(ValueError, match="parallel"):
            fleet_localize(RAPMiner(), cases, tenants=["a"])

    def test_every_submission_queues_on_its_layout_fifo(self, cases):
        supervisor = FleetSupervisor(RAPMiner(), config=FleetConfig(mode="inline"))
        with obs.capture() as collector:
            for case in cases:
                supervisor.submit(case, tenant="hot")
            assert collector.metrics.family_total("fleet_queue_depth") == len(cases)
            evaluation = supervisor.drain()
            assert collector.metrics.family_total("fleet_queue_depth") == 0
        assert len(evaluation.results) == len(cases)

    def test_layout_first_seen_while_serving_gets_a_worker(self):
        """A layout first seen while workers run must still be served.

        Its FIFO must get a worker thread when it is created, not only
        when serving (or a thread drain) starts; otherwise its case never
        runs and its wait blocks forever.  A served case's outcome goes
        only to its callback: the fleet keeps nothing to drain.
        """
        mixed = list(make_cases(3)) + list(
            generate_rapmd(
                cdn_schema(3, 2, 2, 2), RAPMDConfig(n_cases=1, n_days=2, seed=11)
            )
        )
        supervisor = FleetSupervisor(
            RAPMiner(), config=FleetConfig(mode="thread", k_from_truth=True)
        )
        done = queue.Queue()
        supervisor.start_serving()
        try:
            for case in mixed:
                supervisor.submit(case, tenant="hot", on_done=done.put)
            outcomes = [done.get(timeout=60) for __ in mixed]
        finally:
            supervisor.stop_serving(timeout=30)
        outcomes.sort(key=lambda outcome: outcome.seq)
        serial = run_cases(RAPMiner(), mixed, k_from_truth=True)
        assert [o.case_id for o in outcomes] == [r.case_id for r in serial.results]
        assert [list(o.predicted) for o in outcomes] == [
            r.predicted for r in serial.results
        ]
        assert supervisor.drain().results == []


class TestCrashes:
    def test_crash_once_requeues_and_matches_serial(self, cases, serial, tmp_path):
        chaotic = CrashOnceLocalizer(RAPMiner(), str(tmp_path / "marker"))
        with obs.capture() as collector:
            evaluation = fleet_localize(
                chaotic,
                cases,
                tenants=TENANTS,
                config=FleetConfig(mode="inline", k_from_truth=True),
            )
        assert_matches_serial(evaluation, serial)
        assert collector.metrics.value("fleet_crashes_total") == 1
        assert collector.metrics.value("fleet_requeues_total") >= 1
        assert collector.metrics.value("fleet_errors_total") == 0.0

    def test_crash_once_in_thread_mode(self, cases, serial, tmp_path):
        chaotic = CrashOnceLocalizer(RAPMiner(), str(tmp_path / "marker"))
        evaluation = fleet_localize(
            chaotic,
            cases,
            tenants=TENANTS,
            config=FleetConfig(mode="thread", k_from_truth=True),
        )
        assert_matches_serial(evaluation, serial)

    def test_always_crash_degrades_every_case_to_error(self, cases):
        evaluation = fleet_localize(
            AlwaysCrashLocalizer(),
            cases,
            config=FleetConfig(mode="inline"),
        )
        assert len(evaluation.results) == len(cases)
        # Every case degrades to an error row: each crashes, is requeued
        # once, crashes again and carries the WorkerCrash.
        assert all(r.error for r in evaluation.results)
        assert any("WorkerCrash" in r.error for r in evaluation.results)
        assert all(r.predicted == [] for r in evaluation.results)

    def test_error_rows_keep_submission_order(self, cases):
        evaluation = fleet_localize(
            AlwaysCrashLocalizer(), cases, config=FleetConfig(mode="inline")
        )
        assert [r.case_id for r in evaluation.results] == [
            c.case_id for c in cases
        ]


class TestWarmEngines:
    def _stream(self, base, case_id):
        """A new interval over *base*'s leaf population (same codes)."""
        ds = base.dataset
        fresh = FineGrainedDataset(
            ds.schema, ds.codes, ds.v.copy(), ds.f.copy(), ds.labels.copy()
        )
        return LocalizationCase(
            case_id=case_id,
            dataset=fresh,
            true_raps=base.true_raps,
            metadata=dict(base.metadata, tenant="t0"),
        )

    def test_same_population_stream_takes_warm_path(self, cases):
        base = cases[0]
        stream = [self._stream(base, f"tick-{i}") for i in range(4)]
        with obs.capture() as collector:
            evaluation = fleet_localize(
                RAPMiner(),
                stream,
                config=FleetConfig(
                    mode="inline", k_from_truth=True, shards_per_layout=1
                ),
            )
        assert all(r.error is None for r in evaluation.results)
        builds = {
            outcome: collector.metrics.value(
                "fleet_engine_builds_total", {"outcome": outcome}
            )
            for outcome in ("cold", "warm", "patched")
        }
        assert builds["cold"] == 1.0  # only the stream's first case
        # Identical ticks: every cached aggregate carries over unchanged.
        assert builds["patched"] == 3.0
        assert builds["warm"] == 0.0

    def test_low_churn_stream_takes_patched_path(self, cases):
        """Ticks that redraw only a few leaves' forecasts are patched, and
        every tick's candidates equal a stateless run on a fresh copy."""
        base = cases[0].dataset
        rng = np.random.default_rng(3)
        stream = []
        for i in range(5):
            f = base.f.copy()
            rows = rng.choice(base.n_rows, size=2, replace=False)
            f[rows] *= rng.uniform(1.1, 1.5, rows.size)
            stream.append(
                LocalizationCase(
                    case_id=f"tick-{i}",
                    dataset=FineGrainedDataset(
                        base.schema, base.codes, base.v, f, base.labels
                    ),
                    true_raps=cases[0].true_raps,
                )
            )
        with obs.capture() as collector:
            evaluation = fleet_localize(
                CandidateMiner(),
                stream,
                config=FleetConfig(mode="inline", shards_per_layout=1),
            )
        metrics = collector.metrics
        assert metrics.value("fleet_engine_builds_total", {"outcome": "cold"}) == 1.0
        assert metrics.value("fleet_engine_builds_total", {"outcome": "patched"}) == 4.0
        for case, row in zip(stream, evaluation.results):
            assert row.error is None
            assert row.predicted == RAPMiner().run(fresh_copy(case.dataset)).candidates

    def test_warm_path_is_bit_identical(self, cases):
        base = cases[0]
        stream = [self._stream(base, f"tick-{i}") for i in range(3)]
        serial = run_cases(RAPMiner(RAPMinerConfig()), make_cases(1), k_from_truth=True)
        fleet = fleet_localize(
            RAPMiner(),
            stream,
            config=FleetConfig(mode="inline", k_from_truth=True, shards_per_layout=1),
        )
        # Every tick is the same interval, so every tick must equal the
        # serial answer for that interval.
        want = run_cases(RAPMiner(), [self._stream(base, "ref")], k_from_truth=True)
        for got in fleet.results:
            assert got.predicted == want.results[0].predicted


class TestEngineRelease:
    """A finished case is freed by reference counting, not the collector."""

    @staticmethod
    def _bodies(n_cases=48):
        """Wire bodies of *n_cases* cases; every fourth drops its last leaf
        so that workers alternate between warm clones and cold builds."""
        bodies = []
        for i, case in enumerate(make_cases(n_cases)):
            if i % 4 == 3:
                ds = case.dataset
                case = LocalizationCase(
                    case_id=case.case_id,
                    dataset=FineGrainedDataset(
                        ds.schema, ds.codes[:-1], ds.v[:-1], ds.f[:-1], ds.labels[:-1]
                    ),
                    true_raps=case.true_raps,
                    metadata=case.metadata,
                )
            bodies.append(case_to_dict(case))
        return bodies

    @pytest.mark.parametrize("mode", ["inline", "thread"])
    def test_only_warm_sources_outlive_their_cases(self, mode):
        bodies = self._bodies()
        supervisor = FleetSupervisor(
            RAPMiner(), config=FleetConfig(mode=mode, k_from_truth=True)
        )
        tracked = (AggregationEngine, FineGrainedDataset)
        gc.collect()
        gc.disable()
        try:
            # Held, so no id of an object alive before the run is reused.
            before = [o for o in gc.get_objects() if isinstance(o, tracked)]
            for body in bodies:
                supervisor.submit(case_from_dict(body))
            evaluation = supervisor.drain()
            known = {id(o) for o in before}
            # gc.get_objects() also lists unreachable cycles not yet collected.
            survivors = {
                id(o)
                for o in gc.get_objects()
                if isinstance(o, tracked) and id(o) not in known
            }
        finally:
            gc.enable()
        assert len(evaluation.results) == len(bodies)
        assert all(r.error is None for r in evaluation.results)
        held = [
            w.session._engine
            for w in supervisor._workers
            if w.session._engine is not None
        ]
        assert held
        assert survivors == {id(e) for e in held} | {id(e.dataset) for e in held}


class TestFastPresetSmoke:
    """Tier-1 guard: the fleet must serve the real fast-preset data."""

    def test_two_shards_on_fast_preset(self):
        from repro.experiments.presets import fast_preset

        cases = fast_preset(seed=1).rapmd_cases()
        serial = run_cases(RAPMiner(), cases, k=5)
        with obs.capture() as collector:
            evaluation = fleet_localize(
                RAPMiner(),
                cases,
                tenants=[f"tenant-{i % 3}" for i in range(len(cases))],
                config=FleetConfig(mode="thread", k=5, shards_per_layout=2),
            )
        assert [r.case_id for r in evaluation.results] == [
            r.case_id for r in serial.results
        ]
        for got, want in zip(evaluation.results, serial.results):
            assert got.predicted == want.predicted
        assert collector.metrics.value("fleet_cases_total") == len(cases)
