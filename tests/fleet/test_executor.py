"""Executor tests: per-layout FIFOs, the crash protocol, serving lifecycle."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.core.miner import RAPMiner
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.experiments.runner import run_cases
from repro.fleet import FleetConfig, FleetSupervisor, layout_key
from repro.resilience.chaos import WorkerCrash


def make_cases(n_cases=6, sizes=(4, 2, 2, 3), seed=9):
    return generate_rapmd(
        cdn_schema(*sizes), RAPMDConfig(n_cases=n_cases, n_days=2, seed=seed)
    )


@pytest.fixture(scope="module")
def cases():
    return make_cases()


class CountingChaos:
    """Crashes chosen cases a fixed number of times, counting every call."""

    name = "CountingChaos"

    def __init__(self, crash_counts, crash=WorkerCrash):
        self.inner = RAPMiner()
        self.remaining = dict(crash_counts)
        self.crash = crash
        self.calls = []

    def localize(self, dataset, k=None):
        case_id = dataset._case_id
        self.calls.append(case_id)
        if self.remaining.get(case_id, 0) > 0:
            self.remaining[case_id] -= 1
            raise self.crash(f"injected: {case_id}")
        return self.inner.localize(dataset, k)


def tagged(cases):
    for case in cases:
        case.dataset._case_id = case.case_id
    return cases


def run_collecting(supervisor, cases, tenant="solo"):
    """Submit *cases*, drain, and return (evaluation, outcomes by seq)."""
    outcomes = {}
    supervisor.on_result = lambda outcome: outcomes.__setitem__(outcome.seq, outcome)
    for case in cases:
        supervisor.submit(case, tenant=tenant)
    return supervisor.drain(), outcomes


class TestSharedFifo:
    def test_one_tenant_burst_is_balanced_without_stealing(self, cases):
        supervisor = FleetSupervisor(
            RAPMiner(),
            config=FleetConfig(mode="inline", shards_per_layout=2, k_from_truth=True),
        )
        evaluation, outcomes = run_collecting(supervisor, cases)
        assert {o.shard for o in outcomes.values()} == {0, 1}
        serial = run_cases(RAPMiner(), cases, k_from_truth=True)
        assert [r.predicted for r in evaluation.results] == [
            r.predicted for r in serial.results
        ]

    def test_layouts_never_share_workers(self):
        mixed = list(make_cases(4)) + list(make_cases(4, sizes=(3, 2, 2, 2), seed=11))
        for seed in range(3):
            order = random.Random(seed).sample(mixed, len(mixed))
            supervisor = FleetSupervisor(
                RAPMiner(),
                config=FleetConfig(
                    mode="inline",
                    shards_per_layout=2,
                    k_from_truth=True,
                    schedule=random.Random(seed),
                ),
            )
            __, outcomes = run_collecting(supervisor, order)
            assert_layouts_apart(order, outcomes)

    def test_thread_mode_keeps_layouts_apart(self):
        mixed = list(make_cases(4)) + list(make_cases(4, sizes=(3, 2, 2, 2), seed=11))
        supervisor = FleetSupervisor(
            RAPMiner(), config=FleetConfig(shards_per_layout=2, k_from_truth=True)
        )
        evaluation, outcomes = run_collecting(supervisor, mixed)
        assert_layouts_apart(mixed, outcomes)
        serial = run_cases(RAPMiner(), mixed, k_from_truth=True)
        assert [r.predicted for r in evaluation.results] == [
            r.predicted for r in serial.results
        ]


def assert_layouts_apart(submitted, outcomes):
    """Each layout's cases ran on its own (at most two) workers."""
    workers_of = {}
    for seq, case in enumerate(submitted):
        workers_of.setdefault(layout_key(case.dataset), set()).add(outcomes[seq].shard)
    first, second = workers_of.values()
    assert not first & second
    assert len(first) <= 2 and len(second) <= 2


class TestCrashProtocol:
    def test_crash_requeues_only_the_inflight_case_once(self):
        cases = tagged(make_cases())
        victim = cases[2].case_id
        method = CountingChaos({victim: 1})
        supervisor = FleetSupervisor(
            method,
            config=FleetConfig(
                mode="inline", shards_per_layout=1, k_from_truth=True
            ),
        )
        evaluation, outcomes = run_collecting(supervisor, cases)
        assert supervisor.crashes == 1
        assert supervisor.requeues == 1
        # The victim ran twice; every other case exactly once.
        assert method.calls.count(victim) == 2
        assert all(
            method.calls.count(c.case_id) == 1 for c in cases if c.case_id != victim
        )
        # The crashed worker was not retired: it served the whole queue.
        assert {o.shard for o in outcomes.values()} == {0}
        serial = run_cases(RAPMiner(), cases, k_from_truth=True)
        assert all(r.error is None for r in evaluation.results)
        assert [r.predicted for r in evaluation.results] == [
            r.predicted for r in serial.results
        ]

    def test_second_failure_is_an_error_row_and_the_rest_still_run(self):
        cases = tagged(make_cases())
        poison = cases[1].case_id
        method = CountingChaos({poison: 2})
        supervisor = FleetSupervisor(
            method,
            config=FleetConfig(mode="inline", shards_per_layout=1, k_from_truth=True),
        )
        evaluation, __ = run_collecting(supervisor, cases)
        assert method.calls.count(poison) == 2
        errors = {r.case_id: r.error for r in evaluation.results if r.error}
        assert list(errors) == [poison]
        assert "WorkerCrash" in errors[poison]
        assert supervisor.requeues == 1
        assert supervisor.crashes == 2


    def test_base_exception_on_a_worker_thread_cannot_hang_drain(self):
        class Abort(BaseException):
            """Not an Exception, like SystemExit or CancelledError."""

        cases = tagged(make_cases())
        poison = cases[1].case_id
        method = CountingChaos({poison: 2}, crash=Abort)
        supervisor = FleetSupervisor(
            method, config=FleetConfig(shards_per_layout=1, k_from_truth=True)
        )
        holder = {}
        runner = threading.Thread(
            target=lambda: holder.update(result=run_collecting(supervisor, cases)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "drain() did not finish"
        evaluation, outcomes = holder["result"]
        assert sorted(outcomes) == list(range(len(cases)))
        errors = {r.case_id: r.error for r in evaluation.results if r.error}
        assert list(errors) == [poison]
        assert errors[poison].startswith("Abort")
        assert supervisor.crashes == 2


class TestStress:
    def test_more_workers_than_cores_lose_nothing(self):
        mixed = list(make_cases(10)) + list(make_cases(10, sizes=(3, 2, 2, 2), seed=11))
        for index, case in enumerate(mixed):
            case.dataset._case_id = index
        method = CountingChaos({3: 1, 14: 1})
        supervisor = FleetSupervisor(
            method,
            config=FleetConfig(
                shards_per_layout=4, tenant_quota=3, k_from_truth=True
            ),
        )
        holder = {}
        runner = threading.Thread(
            target=lambda: holder.update(result=run_collecting(supervisor, mixed)),
            daemon=True,
        )
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive(), "drain() did not finish"
        evaluation, outcomes = holder["result"]
        assert sorted(outcomes) == list(range(len(mixed)))
        assert supervisor.crashes == 2
        assert supervisor.requeues == 2
        serial = run_cases(RAPMiner(), mixed, k_from_truth=True)
        assert all(r.error is None for r in evaluation.results)
        assert [r.predicted for r in evaluation.results] == [
            r.predicted for r in serial.results
        ]


class BlockingLocalizer:
    """Blocks inside the first case until released; instant otherwise."""

    name = "Blocking"

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def localize(self, dataset, k=None):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(10), "test never released the worker"
        return []


def settle(expected, timeout=5.0):
    """Wait for the live thread count to reach *expected*; return it."""
    deadline = time.monotonic() + timeout
    while threading.active_count() != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


class TestServingLifecycle:
    def test_stop_serving_honours_one_deadline_and_forgets_no_worker(self, cases):
        baseline = threading.active_count()
        method = BlockingLocalizer()
        supervisor = FleetSupervisor(method, config=FleetConfig(shards_per_layout=2))
        finished = []
        supervisor.on_result = finished.append
        supervisor.start_serving()
        try:
            supervisor.submit(cases[0])
            assert method.entered.wait(5)
            started = time.monotonic()
            supervisor.stop_serving(timeout=0.05)
            assert time.monotonic() - started < 0.5
            # The idle worker retired; the busy one is still mid-case.
            assert settle(baseline + 1) == baseline + 1
            supervisor.start_serving()
            method.release.set()
            # The busy worker kept its slot: a fresh thread joined only
            # the idle one, so the layout runs exactly two threads.
            assert settle(baseline + 2) == baseline + 2
            time.sleep(0.05)
            assert threading.active_count() == baseline + 2
            supervisor.submit(cases[1])
            deadline = time.monotonic() + 5
            while len(finished) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [o.case_id for o in finished] == [cases[0].case_id, cases[1].case_id]
        finally:
            method.release.set()
            supervisor.stop_serving(timeout=5)
        assert settle(baseline) == baseline
