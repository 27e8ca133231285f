"""Case-stacked batch kernel throughput: serial vs vectorized.

The workload is a replayed stream — the fast preset's RAPMD cases
repeated ``REPLAY`` times as fresh snapshot objects over shared array
buffers, i.e. a stream of snapshots of one KPI population.  That is exactly the
shape the case-stacked kernel (``core/stacked.py``) is built for: every
replayed snapshot shares the leaf layout, so ``RAPMiner.run_batch``
stacks the whole stream into one layout group and aggregates each BFS
layer for all cases in one fused bincount pass.

Measured configurations:

* **serial** — :func:`run_cases`, one cold engine per snapshot (the
  figure drivers' behaviour);
* **vectorized** — one :meth:`RAPMiner.run_batch` call over the whole
  stream: the in-process stacked kernel that ``repro batch-localize``
  runs (the fleet runs cases one at a time).

The vectorized output is asserted bit-identical to serial, and the
kernel is pure array-level batching, so its ``TARGET_SPEEDUP`` floor is
enforced on *every* machine, single-CPU containers included.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import RAPMiner
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import LocalizationCase
from repro.experiments.runner import run_cases

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_stacked.json"
#: Stream length: fast-preset case list replayed this many times.
REPLAY = 32
#: Timed repetitions per configuration; the minimum wall time is reported.
REPEATS = 3
#: Acceptance floor of the vectorized kernel vs serial, any machine.
TARGET_SPEEDUP = 2.0
#: Top-k of the RAPMD protocol.
K = 5


def _replayed_stream(cases, replay):
    """The case list repeated *replay* times as fresh snapshot objects.

    Array buffers are shared (zero extra memory); dataset and case
    objects are fresh, so no engine cache survives from a previous timed
    run — each configuration starts from the same cold state.
    """
    stream = []
    for round_index in range(replay):
        for case in cases:
            dataset = case.dataset
            stream.append(
                LocalizationCase(
                    case_id=f"{case.case_id}#r{round_index}",
                    dataset=FineGrainedDataset(
                        dataset.schema,
                        dataset.codes,
                        dataset.v,
                        dataset.f,
                        dataset.labels,
                    ),
                    true_raps=case.true_raps,
                    metadata=dict(case.metadata),
                )
            )
    return stream


def _run_batch(method, stream, k=K):
    """Top-*k* predictions of every case through one ``run_batch`` call."""
    results = method.run_batch([case.dataset for case in stream], k=None)
    return [list(result.top(k)) for result in results]


def _assert_identical(predictions, serial_evaluation, label):
    assert len(predictions) == len(serial_evaluation.results), f"{label}: case count"
    for got, want in zip(predictions, serial_evaluation.results):
        assert got == want.predicted, f"{label}: {want.case_id} diverged"


def _timed(run, cases, repeats=REPEATS):
    best = float("inf")
    evaluation = None
    for _ in range(repeats):
        stream = _replayed_stream(cases, REPLAY)
        start = time.perf_counter()
        evaluation = run(stream)
        best = min(best, time.perf_counter() - start)
    return best, evaluation


def test_stacked_throughput_report(rapmd_cases, capsys):
    method = RAPMiner()
    n_cases = len(rapmd_cases) * REPLAY
    cpu_count = os.cpu_count() or 1

    serial_s, serial_eval = _timed(
        lambda stream: run_cases(method, stream, k=K), rapmd_cases
    )

    vectorized_s, predictions = _timed(
        lambda stream: _run_batch(method, stream), rapmd_cases
    )
    _assert_identical(predictions, serial_eval, "vectorized")
    vectorized_speedup = serial_s / vectorized_s
    rows = [
        {
            "mode": mode,
            "wall_s": wall,
            "cases_per_s": n_cases / wall,
            "speedup_vs_serial": serial_s / wall,
        }
        for mode, wall in (("serial", serial_s), ("vectorized", vectorized_s))
    ]

    report = {
        "benchmark": "case-stacked batch kernel throughput (RAPMD protocol, k=5)",
        "dataset": "rapmd-fast-preset",
        "replay_factor": REPLAY,
        "n_cases": n_cases,
        "repeats": REPEATS,
        "cpu_count": cpu_count,
        "configurations": rows,
        "bit_identical_to_serial": True,
        "target_speedup_vectorized": TARGET_SPEEDUP,
        "speedup_vectorized": vectorized_speedup,
        "meets_target": vectorized_speedup >= TARGET_SPEEDUP,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print(
            f"\n[stacked throughput] {n_cases} cases (replay x{REPLAY}), "
            f"{cpu_count} CPU(s):"
        )
        for row in rows:
            print(
                f"  {row['mode']:>22}: {row['wall_s'] * 1e3:8.1f} ms  "
                f"{row['cases_per_s']:8.1f} cases/s  "
                f"{row['speedup_vs_serial']:.2f}x"
            )
        print(
            f"  report: {REPORT_PATH.name} "
            f"(meets_target={report['meets_target']})"
        )

    assert vectorized_speedup >= TARGET_SPEEDUP, (
        f"vectorized kernel {vectorized_speedup:.2f}x below the "
        f"{TARGET_SPEEDUP}x floor (array-level batching needs no spare cores)"
    )


def test_benchmark_vectorized_path(benchmark, rapmd_cases):
    """pytest-benchmark timing of the in-process vectorized kernel (short stream)."""
    method = RAPMiner()

    def run():
        return _run_batch(method, _replayed_stream(rapmd_cases, 2))

    benchmark.pedantic(run, rounds=3, iterations=1)
