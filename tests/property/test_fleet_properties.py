"""Property: fleet output is bitwise-identical to serial, whatever happens.

The fleet's determinism contract says the worker interleaving, the
tenant mix, the shard count and even injected worker
crashes may change *where* and *when* a case runs — but
never *what* it answers.  Hypothesis drives all of those dimensions at
once through the deterministic ``inline`` drive (a seeded RNG picks which
shard steps next, so every counterexample replays exactly) and compares
against one serial reference run.
"""

from __future__ import annotations

import random
from typing import List, Optional

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.attribute import AttributeCombination
from repro.core.miner import RAPMiner
from repro.data.dataset import FineGrainedDataset
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.experiments.runner import run_cases
from repro.fleet import FleetConfig, fleet_localize
from repro.resilience.chaos import WorkerCrash

#: Shared corpus: generated once, reused read-only by every example.
CASES = generate_rapmd(
    cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=6, n_days=2, seed=9)
)
SERIAL = run_cases(RAPMiner(), CASES, k_from_truth=True)


class SeededChaosLocalizer:
    """Crashes the first execution of each chosen case, then succeeds.

    The in-memory analogue of the resilience layer's marker-file
    ``CrashOnceLocalizer``: the crash schedule is part of the hypothesis
    draw, so chaos is reproducible example by example.
    """

    name = "SeededChaos"

    def __init__(self, inner, crash_case_ids):
        self.inner = inner
        self._pending = set(crash_case_ids)

    def localize(
        self, dataset: FineGrainedDataset, k: Optional[int] = None
    ) -> List[AttributeCombination]:
        crashed = getattr(dataset, "_chaos_case_id", None)
        if crashed in self._pending:
            self._pending.discard(crashed)
            raise WorkerCrash(f"seeded chaos: {crashed}")
        return self.inner.localize(dataset, k)


def _tag(case):
    """Stamp the case id onto the dataset so the chaos hook can see it."""
    case.dataset._chaos_case_id = case.case_id
    return case


@st.composite
def fleet_setups(draw):
    n = len(CASES)
    tenants = [
        draw(st.sampled_from(["alpha", "beta", "gamma", "hot"])) for __ in range(n)
    ]
    crash_ids = draw(
        st.sets(st.sampled_from([c.case_id for c in CASES]), max_size=2)
    )
    config = FleetConfig(
        mode="inline",
        k_from_truth=True,
        shards_per_layout=draw(st.integers(1, 3)),
        schedule=random.Random(draw(st.integers(0, 2**32 - 1))),
    )
    # Each crash kills one shard, and requeued work needs a survivor: a
    # crash budget beyond shards_per_layout - 1 can correctly degrade the
    # tail to error rows, which is a different contract (covered by the
    # unit suite) than bit-identity.
    crash_ids = set(sorted(crash_ids)[: config.shards_per_layout - 1])
    return tenants, config, crash_ids


@given(fleet_setups())
@settings(max_examples=25, deadline=None)
def test_fleet_is_bitwise_identical_to_serial(setup):
    tenants, config, crash_ids = setup
    method = (
        SeededChaosLocalizer(RAPMiner(), crash_ids) if crash_ids else RAPMiner()
    )
    evaluation = fleet_localize(
        method, [_tag(c) for c in CASES], tenants=tenants, config=config
    )
    assert [r.case_id for r in evaluation.results] == [
        r.case_id for r in SERIAL.results
    ]
    for got, want in zip(evaluation.results, SERIAL.results):
        assert got.error is None, got.error
        assert got.predicted == want.predicted
        assert got.true_raps == want.true_raps


@given(fleet_setups())
@settings(max_examples=10, deadline=None)
def test_fleet_never_loses_or_duplicates_a_case(setup):
    tenants, config, crash_ids = setup
    method = (
        SeededChaosLocalizer(RAPMiner(), crash_ids) if crash_ids else RAPMiner()
    )
    evaluation = fleet_localize(
        method, [_tag(c) for c in CASES], tenants=tenants, config=config
    )
    assert sorted(r.case_id for r in evaluation.results) == sorted(
        c.case_id for c in CASES
    )
