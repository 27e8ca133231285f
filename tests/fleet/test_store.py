"""Segment-log store tests: round trips, recovery, replay, warm start."""

from __future__ import annotations

import gc
import json
import struct
import warnings

import numpy as np
import pytest

from repro import obs
from repro.core.miner import RAPMiner
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.experiments.runner import run_cases
from repro.fleet import (
    FleetConfig,
    FleetStore,
    FleetSupervisor,
    fleet_localize,
    replay_store,
)
from repro.fleet.store import MAGIC, STORE_VERSION


@pytest.fixture(scope="module")
def cases():
    return generate_rapmd(
        cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=4, n_days=2, seed=9)
    )


class TestRoundTrip:
    def test_case_arrays_survive_bit_exactly(self, cases, tmp_path):
        path = tmp_path / "fleet.log"
        with FleetStore(path) as store:
            for seq, case in enumerate(cases):
                store.append_case(seq, f"t{seq % 2}", case)
        with FleetStore(path, mode="r") as store:
            decoded = store.cases()
        assert [tenant for __, tenant, __ in decoded] == ["t0", "t1", "t0", "t1"]
        for (seq, __, got), want in zip(decoded, cases):
            assert got.case_id == want.case_id
            assert got.true_raps == want.true_raps
            np.testing.assert_array_equal(got.dataset.codes, want.dataset.codes)
            assert got.dataset.v.tobytes() == want.dataset.v.tobytes()
            assert got.dataset.f.tobytes() == want.dataset.f.tobytes()
            np.testing.assert_array_equal(got.dataset.labels, want.dataset.labels)

    def test_result_rows_round_trip(self, tmp_path, cases):
        path = tmp_path / "fleet.log"
        row = {
            "case_id": "c-1",
            "predicted": ["a=a1&b=b2"],
            "true_raps": ["a=a1"],
            "seconds": 0.25,
            "group": None,
            "shard": 3,
            "error": None,
        }
        with FleetStore(path) as store:
            store.append_result(7, "edge", row)
        with FleetStore(path, mode="r") as store:
            rows = store.results()
        assert rows == [dict(row, seq=7, tenant="edge")]

    def test_read_mode_rejects_appends_and_missing_files(self, tmp_path, cases):
        with pytest.raises(FileNotFoundError):
            FleetStore(tmp_path / "absent.log", mode="r")
        path = tmp_path / "fleet.log"
        with FleetStore(path) as store:
            store.append_case(0, "t", cases[0])
        with FleetStore(path, mode="r") as store:
            with pytest.raises(ValueError, match="read-only"):
                store.append_case(1, "t", cases[0])

    @staticmethod
    def assert_rejects_without_leak(path, match):
        """The rejected log's file handle is closed, not left to the finalizer.

        A warning raised in a finalizer never propagates, so it is
        recorded and asserted on instead of being turned into an error.
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match=match):
                FleetStore(path)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-log"
        path.write_bytes(b"definitely not " + b"x" * 32)
        self.assert_rejects_without_leak(path, "not a fleet segment log")
        short = tmp_path / "short.log"
        short.write_bytes(b"tiny")
        self.assert_rejects_without_leak(short, "short header")

    def test_rejects_future_versions(self, tmp_path):
        path = tmp_path / "future.log"
        path.write_bytes(struct.pack("<8sI", MAGIC, STORE_VERSION + 1))
        self.assert_rejects_without_leak(path, "version")


class TestIndex:
    def test_sidecar_index_is_adopted_when_fresh(self, tmp_path, cases):
        path = tmp_path / "fleet.log"
        with FleetStore(path) as store:
            store.append_case(0, "t", cases[0])
        assert path.with_name("fleet.log.idx").exists()
        reopened = FleetStore(path, mode="r")
        assert len(reopened) == 1
        reopened.close()

    def test_stale_index_is_ignored_and_rebuilt(self, tmp_path, cases):
        path = tmp_path / "fleet.log"
        with FleetStore(path) as store:
            store.append_case(0, "t", cases[0])
        index_path = path.with_name("fleet.log.idx")
        payload = json.loads(index_path.read_text())
        payload["log_bytes"] = 1  # lie about the log size
        index_path.write_text(json.dumps(payload))
        with FleetStore(path, mode="r") as store:
            assert len(store.cases()) == 1  # rebuilt by scan

    def test_deleting_index_is_safe(self, tmp_path, cases):
        path = tmp_path / "fleet.log"
        with FleetStore(path) as store:
            for seq, case in enumerate(cases):
                store.append_case(seq, "t", case)
        path.with_name("fleet.log.idx").unlink()
        with FleetStore(path, mode="r") as store:
            assert len(store.cases()) == len(cases)


class TestRecovery:
    def _torn(self, tmp_path, cases, chop):
        path = tmp_path / "torn.log"
        with FleetStore(path) as store:
            store.append_case(0, "t", cases[0])
            store.append_case(1, "t", cases[1])
        path.with_name("torn.log.idx").unlink()
        data = path.read_bytes()
        path.write_bytes(data[:-chop])
        return path

    def test_torn_tail_is_dropped_with_warning(self, tmp_path, cases):
        path = self._torn(tmp_path, cases, chop=17)
        with obs.capture() as collector:
            with pytest.warns(RuntimeWarning, match="torn"):
                store = FleetStore(path)
        decoded = store.cases()
        store.close()
        assert [seq for seq, __, __ in decoded] == [0]
        assert collector.metrics.value("fleet_store_recovered_total") == 1

    def test_recovered_log_accepts_new_appends(self, tmp_path, cases):
        path = self._torn(tmp_path, cases, chop=5)
        with pytest.warns(RuntimeWarning):
            store = FleetStore(path)
        store.append_case(1, "t", cases[1])
        store.close()
        with FleetStore(path, mode="r") as reopened:
            assert [seq for seq, __, __ in reopened.cases()] == [0, 1]

    def test_corrupt_middle_truncates_from_there(self, tmp_path, cases):
        path = tmp_path / "flip.log"
        with FleetStore(path) as store:
            store.append_case(0, "t", cases[0])
            second = store.append_case(1, "t", cases[1])
        path.with_name("flip.log.idx").unlink()
        data = bytearray(path.read_bytes())
        data[second + 20] ^= 0xFF  # flip a byte inside record 2
        path.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning):
            store = FleetStore(path, mode="r")
        assert [seq for seq, __, __ in store.cases()] == [0]
        store.close()


class TestReplayAndWarmStart:
    def test_replaying_a_run_reproduces_reports_bit_exactly(self, tmp_path, cases):
        path = tmp_path / "run.log"
        config = FleetConfig(mode="inline", k_from_truth=True)
        original = fleet_localize(
            RAPMiner(), cases, config=config, store=str(path)
        )
        replayed = replay_store(RAPMiner(), str(path), config=config)
        assert [r.case_id for r in replayed.results] == [
            r.case_id for r in original.results
        ]
        for got, want in zip(replayed.results, original.results):
            assert got.predicted == want.predicted
        # ... and both match the rows persisted during the original run.
        with FleetStore(path, mode="r") as store:
            persisted = store.results()
        for row, want in zip(persisted, original.results):
            assert row["predicted"] == [str(p) for p in want.predicted]
            assert row["error"] is None

    def test_last_cases_picks_highest_seq_per_tenant(self, tmp_path, cases):
        path = tmp_path / "fleet.log"
        with FleetStore(path) as store:
            store.append_case(0, "a", cases[0])
            store.append_case(1, "b", cases[1])
            store.append_case(2, "a", cases[2])
        with FleetStore(path, mode="r") as store:
            latest = store.last_cases()
        assert set(latest) == {"a", "b"}
        assert latest["a"][0] == 2
        assert latest["a"][1].case_id == cases[2].case_id
        assert latest["b"][0] == 1

    def test_warm_start_after_restart_skips_cold_builds(self, tmp_path, cases):
        from repro.data.dataset import FineGrainedDataset
        from repro.data.injection import LocalizationCase

        base = cases[0]

        def tick(case_id):
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

        path = tmp_path / "day1.log"
        config = FleetConfig(mode="inline", k_from_truth=True, shards_per_layout=1)
        fleet_localize(RAPMiner(), [tick("day1")], config=config, store=str(path))

        # "Restart": a fresh supervisor primed from the persisted log.
        with obs.capture() as collector:
            supervisor = FleetSupervisor(RAPMiner(), config=config)
            with FleetStore(path, mode="r") as store:
                assert supervisor.warm_start(store) == 1
            for i in range(3):
                supervisor.submit(tick(f"day2-{i}"))
            evaluation = supervisor.drain()
        assert all(r.error is None for r in evaluation.results)
        builds = collector.metrics
        assert builds.value("fleet_engine_builds_total", {"outcome": "cold"}) == 0.0
        # The primed session holds the same interval: every tick patches.
        assert builds.value("fleet_engine_builds_total", {"outcome": "patched"}) == 3.0
        assert builds.value("fleet_engine_builds_total", {"outcome": "warm"}) == 0.0
        assert (
            builds.value("fleet_engine_builds_total", {"outcome": "warmstart"}) == 1.0
        )
        assert builds.value("fleet_warm_starts_total") == 1.0
        # The served answers equal a serial run of the same interval.
        want = run_cases(RAPMiner(), [tick("ref")], k_from_truth=True)
        for got in evaluation.results:
            assert got.predicted == want.results[0].predicted

    def test_warm_start_keeps_already_submitted_cases(self, tmp_path, cases):
        """Priming must not consume queued work.

        Regression: warm_start used to push a priming item through the
        scheduler and pop the home shard's queue head back — if a real
        case was submitted before the warm start, that case was silently
        discarded (and the next drain hung on its missing row).
        """
        from repro.data.dataset import FineGrainedDataset
        from repro.data.injection import LocalizationCase

        base = cases[0]

        def tick(case_id):
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

        path = tmp_path / "day1.log"
        config = FleetConfig(mode="inline", k_from_truth=True, shards_per_layout=1)
        fleet_localize(RAPMiner(), [tick("day1")], config=config, store=str(path))

        supervisor = FleetSupervisor(RAPMiner(), config=config)
        supervisor.submit(tick("early-0"))  # queued before the warm start
        with FleetStore(path, mode="r") as store:
            assert supervisor.warm_start(store) == 1
        supervisor.submit(tick("early-1"))
        evaluation = supervisor.drain()
        assert [r.case_id for r in evaluation.results] == ["early-0", "early-1"]
        assert all(r.error is None for r in evaluation.results)


    def test_warm_start_primes_each_worker_once(self, tmp_path, cases):
        """Three tenants on one layout, two workers: two priming runs.

        A worker's session keeps only its last tick, so priming it with
        every tenant's case threw all but the last away (six runs, four
        discarded).  The two newest stored cases prime one worker each.
        """
        path = tmp_path / "fleet.log"
        with FleetStore(path) as store:
            for seq, tenant in enumerate(["a", "b", "c", "a"]):
                store.append_case(seq, tenant, cases[seq])

        primed = []

        class CountingMiner(RAPMiner):
            def localize(self, dataset, k=None):
                primed.append(dataset)
                return super().localize(dataset, k)

        config = FleetConfig(mode="inline", shards_per_layout=2)
        supervisor = FleetSupervisor(CountingMiner(), config=config)
        with obs.capture() as collector:
            with FleetStore(path, mode="r") as store:
                assert supervisor.warm_start(store) == 2
        assert len(primed) == 2
        builds = collector.metrics
        assert (
            builds.value("fleet_engine_builds_total", {"outcome": "warmstart"}) == 2.0
        )
        assert builds.value("fleet_warm_starts_total") == 2.0
        # Newest first: tenant "a" (seq 3), then "c" (seq 2), one per worker.
        for dataset, case in zip(primed, [cases[3], cases[2]]):
            assert np.array_equal(dataset.v, case.dataset.v)


class TestStoreMetrics:
    def test_appends_and_recovery_are_counted(self, tmp_path, cases):
        path = tmp_path / "fleet.log"
        with obs.capture() as collector:
            with FleetStore(path) as store:
                store.append_case(0, "t", cases[0])
                store.append_result(0, "t", {"case_id": "x", "predicted": []})
        metrics = collector.metrics
        assert metrics.value("fleet_store_records_total", {"kind": "case"}) == 1.0
        assert metrics.value("fleet_store_records_total", {"kind": "result"}) == 1.0
        assert metrics.value("fleet_store_bytes_total") > 0
