"""Streaming delta localization: patched ticks vs cold re-aggregation.

The workload is a replayed multi-tick trace of one monitored leaf
population: a fixed CDN background snapshot whose forecast lane is
redrawn every tick on the rows under two injected RAPs (an incident that
persists while its per-leaf deviations fluctuate), everything else
untouched.  That is the stream shape the delta path (``core/delta.py``)
is built for — a low changed-leaf fraction against a stable layout — and
the shape the production service sees *per incident* once the forecaster
locks on.

Measured configurations:

* **cold** — a stateless :class:`RAPMiner` per tick on a fresh dataset
  object (fresh engine, full re-aggregation): the pre-delta cost model;
* **delta** — one :class:`StreamingRAPMiner` over the whole trace: tick 1
  aggregates cold, every later tick patches the cached cuboid aggregates
  from the changed rows alone.

The report gates on the ISSUE acceptance criteria: amortized per-tick
delta latency (cold first tick included) at least ``TARGET_SPEEDUP``x
below the cold per-tick latency at a changed-leaf fraction of at most
``MAX_CHANGED_FRACTION``, with candidates asserted bit-identical to the
stateless runs on every tick.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import numpy as np

from repro.core.config import RAPMinerConfig
from repro.core.incremental import StreamingRAPMiner
from repro.core.miner import RAPMiner
from repro.data.cdn_simulator import CDNSimulator, CDNSimulatorConfig
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import sample_raps
from repro.data.schema import cdn_schema

from test_incremental_warmstart import assert_bit_identical

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_stream.json"
#: Ticks per trace (first one aggregates cold and is charged to delta).
N_TICKS = 48
#: Timed repetitions per configuration; the minimum wall time is reported.
REPEATS = 3
#: Acceptance floor: amortized delta per-tick vs cold per-tick.
TARGET_SPEEDUP = 3.0
#: Acceptance ceiling on the trace's changed-leaf fraction.
MAX_CHANGED_FRACTION = 0.10
CONFIG = RAPMinerConfig(enable_attribute_deletion=False)


def build_trace():
    """A persisted 2-RAP incident: per-tick forecast redraw on RAP rows only.

    Returns the shared arrays (codes, v, per-tick f, per-tick labels) so
    every timed repetition can rebuild *fresh dataset objects* — no
    engine-registry reuse between repetitions — without regenerating data.
    """
    schema = cdn_schema()  # the paper's CDN shape: 33 x 4 x 4 x 20
    sim = CDNSimulator(schema, CDNSimulatorConfig(seed=29))
    background = sim.snapshot(900).to_dataset()
    rng = np.random.default_rng(29)
    raps = sample_raps(
        background, 2, rng, dimensions=[2, 3], min_support=6, max_coverage=0.05
    )
    rap_mask = np.zeros(background.n_rows, dtype=bool)
    for rap in raps:
        rap_mask |= background.mask_of(rap)
    rap_rows = np.flatnonzero(rap_mask)
    v = background.v
    ticks = []
    for _ in range(N_TICKS):
        dev = rng.uniform(0.5, 0.9, rap_rows.size)
        f = v.copy()
        f[rap_rows] = (v[rap_rows] + 1e-6) / (1.0 - dev)
        labels = np.zeros(background.n_rows, dtype=bool)
        labels[rap_rows] = True
        ticks.append((f, labels))
    return background.schema, background.codes, v, ticks, rap_rows.size


def make_datasets(schema, codes, v, ticks):
    """Fresh dataset objects over the shared trace arrays."""
    return [FineGrainedDataset(schema, codes, v, f, labels) for f, labels in ticks]


def test_stream_delta_report(capsys):
    schema, codes, v, ticks, n_changed = build_trace()
    n_leaves = codes.shape[0]
    changed_fraction = n_changed / n_leaves

    # Reference + per-tick equivalence gate (untimed): stateless candidates
    # on rebuilt datasets, codes copied so no cache can leak between runs.
    reference = []
    for dataset in make_datasets(schema, codes, v, ticks):
        rebuilt = FineGrainedDataset(
            schema, dataset.codes.copy(), dataset.v, dataset.f, dataset.labels
        )
        reference.append(RAPMiner(CONFIG).run(rebuilt).candidates)

    cold_s = float("inf")
    for _ in range(REPEATS):
        datasets = make_datasets(schema, codes, v, ticks)
        miner = RAPMiner(CONFIG)
        gc.collect()  # dead engines from the previous repetition, off the clock
        start = time.perf_counter()
        produced = [miner.run(dataset).candidates for dataset in datasets]
        cold_s = min(cold_s, time.perf_counter() - start)
    for got, want in zip(produced, reference):
        assert_bit_identical(got, want)

    delta_s = float("inf")
    streaming = None
    for _ in range(REPEATS):
        datasets = make_datasets(schema, codes, v, ticks)
        streaming = StreamingRAPMiner(CONFIG)
        gc.collect()
        start = time.perf_counter()
        produced = [streaming.run(dataset).candidates for dataset in datasets]
        delta_s = min(delta_s, time.perf_counter() - start)
    for got, want in zip(produced, reference):
        assert_bit_identical(got, want)

    stats = streaming.stats
    speedup = cold_s / delta_s
    report = {
        "benchmark": "streaming delta localization (persisted 2-RAP incident)",
        "n_ticks": N_TICKS,
        "n_leaves": int(n_leaves),
        "changed_rows_per_tick": int(n_changed),
        "changed_fraction": changed_fraction,
        "repeats": REPEATS,
        "cold_per_tick_s": cold_s / N_TICKS,
        "delta_amortized_per_tick_s": delta_s / N_TICKS,
        "patched_ticks": stats.patched_ticks,
        "cold_ticks": stats.cold_ticks,
        "rebases": stats.rebases,
        "patch_seconds_total": stats.patch_seconds,
        "speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "max_changed_fraction": MAX_CHANGED_FRACTION,
        "bit_identical_to_stateless": True,
        "meets_target": bool(
            speedup >= TARGET_SPEEDUP and changed_fraction <= MAX_CHANGED_FRACTION
        ),
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print(
            f"\n[stream delta] {N_TICKS} ticks x {n_leaves} leaves, "
            f"{n_changed} changed rows/tick ({changed_fraction:.1%}):"
        )
        print(f"  cold : {cold_s / N_TICKS * 1e3:8.2f} ms/tick")
        print(
            f"  delta: {delta_s / N_TICKS * 1e3:8.2f} ms/tick amortized "
            f"({stats.patched_ticks} patched, {stats.cold_ticks} cold, "
            f"{stats.rebases} re-bases)"
        )
        print(
            f"  speedup {speedup:.2f}x  report: {REPORT_PATH.name} "
            f"(meets_target={report['meets_target']})"
        )

    assert changed_fraction <= MAX_CHANGED_FRACTION, (
        f"trace churn {changed_fraction:.1%} above the "
        f"{MAX_CHANGED_FRACTION:.0%} acceptance ceiling"
    )
    assert stats.patched_ticks == N_TICKS - 1, (
        f"expected every tick after the first to patch, got "
        f"{stats.patched_ticks} patched / {stats.cold_ticks} cold"
    )
    assert speedup >= TARGET_SPEEDUP, (
        f"amortized delta path {speedup:.2f}x below the {TARGET_SPEEDUP}x floor"
    )


def test_benchmark_delta_stream(benchmark):
    """pytest-benchmark timing of the delta path over one trace replay."""
    schema, codes, v, ticks, __ = build_trace()

    def run():
        miner = StreamingRAPMiner(CONFIG)
        return [
            miner.run(dataset).candidates
            for dataset in make_datasets(schema, codes, v, ticks)
        ]

    benchmark.pedantic(run, rounds=3, iterations=1)
