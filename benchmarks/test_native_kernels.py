"""Native compiled kernel backend: serial vs vectorized-numpy vs native.

Two measurements, one artifact (``BENCH_native.json``):

* **End-to-end walls** — the fast preset's RAPMD cases replayed
  ``REPLAY`` times (the same stream-of-snapshots model as
  ``test_stacked_throughput.py``) through three configurations: serial
  ``run_cases`` on the numpy backend, the in-process vectorized kernel
  (one ``RAPMiner.run_batch`` call) on the numpy backend, and the same
  vectorized kernel on the native C backend.  Every configuration's
  ranked output is asserted bit-identical to serial.
* **Kernel-trio micro-timings** — the three hot kernels the native
  backend exists for (fused full-lattice aggregation, case-stacked
  anomalous counts, case-stacked weighted lanes), timed on *realistic*
  inputs taken from the preset itself: the actual leaf table (row
  count, attribute cardinalities, label density) and the full replayed
  case count.  The ``TARGET_SPEEDUP`` floor is enforced here, where
  the comparison isolates the kernels the backend replaces; the
  end-to-end walls additionally carry Python search control flow that
  no kernel backend can remove, so they are reported, not gated.

The trio is timed in a fresh child process with glibc's malloc
thresholds pinned (:data:`NEUTRAL_MALLOC`).  Each kernel returns
megabyte-sized outputs; with glibc's default, adaptive thresholds,
whether a fresh output is mapped from the OS (a page fault per 4 KiB
page on first touch) or recycled from the heap depends on everything
the process allocated before, and at this scale those faults cost more
than the kernels themselves.  Pinned thresholds recycle freed outputs
for both backends, so the ratio compares kernel work only.  Bit-identity
of the two backends is asserted in the benchmark process.

The native library's identity (compiler, version, cache path) is
recorded in the artifact via :func:`repro.native.backend_info`.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import RAPMiner
from repro.core.config import RAPMinerConfig
from repro.experiments.presets import fast_preset
from repro.experiments.runner import run_cases
from repro.native import NumpyBackend, backend_info, resolve_backend

from test_stacked_throughput import _assert_identical, _replayed_stream, _run_batch

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_native.json"
#: Stream length: fast-preset case list replayed this many times.
REPLAY = 32
#: Timed repetitions per end-to-end configuration; minimum wall reported.
REPEATS = 3
#: Timed repetitions per micro-timed kernel call; minimum wall reported.
MICRO_REPEATS = 20
#: Top-k of the RAPMD protocol.
K = 5
#: Acceptance floor: native kernel trio vs the vectorized numpy kernels.
TARGET_SPEEDUP = 2.0
#: Environment of the trio-timing child: a fixed mmap threshold (glibc's
#: maximum, 32 MiB, which also turns off its adaptive raising) and a
#: trim threshold high enough that freed outputs stay on the heap.
#: Other C libraries ignore these variables.
NEUTRAL_MALLOC = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


def _timed(run, cases, repeats=REPEATS):
    best = float("inf")
    evaluation = None
    for _ in range(repeats):
        stream = _replayed_stream(cases, REPLAY)
        start = time.perf_counter()
        evaluation = run(stream)
        best = min(best, time.perf_counter() - start)
    return best, evaluation


def _micro(call, repeats=MICRO_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _full_lattice_plans(sizes):
    """Stride matrix + offsets covering every cuboid of the lattice.

    The same compressed plan shape the engine builds per BFS layer
    (``(n_attrs, n_blocks)`` strides, cumulative block offsets), here
    spanning all layers at once so one ``fused_batch`` call measures a
    whole-lattice aggregation of the preset's leaf table.
    """
    n_attrs = len(sizes)
    stride_rows = []
    offsets = [0]
    for layer in range(1, n_attrs + 1):
        for subset in itertools.combinations(range(n_attrs), layer):
            strides = [0] * n_attrs
            stride = 1
            for attr in reversed(subset):
                strides[attr] = stride
                stride *= sizes[attr]
            stride_rows.append(strides)
            offsets.append(offsets[-1] + stride)
    stride_matrix = np.ascontiguousarray(
        np.array(stride_rows, dtype=np.int64).T
    )
    return stride_matrix, np.array(offsets[:-1], dtype=np.int64), offsets[-1]


def _trio_workload(datasets):
    """Realistic inputs for the three hot kernels, from the preset itself."""
    first = datasets[0]
    sizes = list(first.schema.sizes)
    codes = np.ascontiguousarray(first.codes)
    stride_matrix, offsets, total = _full_lattice_plans(sizes)
    label_rows_per_case = [np.flatnonzero(d.labels) for d in datasets]
    key_columns = [np.ascontiguousarray(codes[:, a]) for a in range(len(sizes))]
    layer1_offsets = np.cumsum([0] + sizes[:-1]).tolist()
    full_strides = stride_matrix[:, -1]  # the all-attributes cuboid
    full_keys = np.ascontiguousarray(codes @ full_strides)
    return {
        "fused_batch": (
            codes,
            stride_matrix,
            offsets,
            total,
            label_rows_per_case[0],
            first.v,
            first.f,
        ),
        "stacked_anomalous": (
            key_columns,
            layer1_offsets,
            int(sum(sizes)),
            np.concatenate(label_rows_per_case),
            [rows.size for rows in label_rows_per_case],
        ),
        "stacked_weighted": (
            full_keys,
            int(np.prod(sizes)),
            [[d.v for d in datasets], [d.f for d in datasets]],
        ),
    }


def _trio_timings():
    """Min-of-repeats seconds of each trio kernel on both backends.

    Runs in the child process started by :func:`_trio_in_fresh_process`;
    the inputs are rebuilt from the same preset as the ``rapmd_cases``
    fixture.
    """
    native = resolve_backend("native", strict=True)
    reference = NumpyBackend()
    cases = fast_preset(seed=1).rapmd_cases()
    datasets = [case.dataset for case in _replayed_stream(cases, REPLAY)]
    timings = {}
    for kernel, args in _trio_workload(datasets).items():
        timings[kernel] = {
            "numpy_s": _micro(lambda: getattr(reference, kernel)(*args)),
            "native_s": _micro(lambda: getattr(native, kernel)(*args)),
        }
    return timings


def _trio_in_fresh_process():
    """:func:`_trio_timings` in a child with :data:`NEUTRAL_MALLOC` set."""
    env = dict(os.environ, **NEUTRAL_MALLOC)
    env["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
    child = subprocess.run(
        [sys.executable, __file__],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_native_kernels_report(rapmd_cases, capsys):
    try:
        native = resolve_backend("native", strict=True)
    except Exception as exc:
        pytest.skip(f"native backend unavailable on this host: {exc}")
    reference = NumpyBackend()
    n_cases = len(rapmd_cases) * REPLAY
    cpu_count = os.cpu_count() or 1

    # -- end-to-end walls, bit-identical candidates asserted ---------------
    serial_s, serial_eval = _timed(
        lambda stream: run_cases(RAPMiner(RAPMinerConfig(backend="numpy")), stream, k=K),
        rapmd_cases,
    )
    vectorized_s, vectorized_eval = _timed(
        lambda stream: _run_batch(RAPMiner(RAPMinerConfig(backend="numpy")), stream, K),
        rapmd_cases,
    )
    native_s, native_eval = _timed(
        lambda stream: _run_batch(RAPMiner(RAPMinerConfig(backend="native")), stream, K),
        rapmd_cases,
    )
    _assert_identical(vectorized_eval, serial_eval, "vectorized-numpy")
    _assert_identical(native_eval, serial_eval, "native")

    # -- kernel-trio micro-timings at preset scale -------------------------
    datasets = [case.dataset for case in _replayed_stream(rapmd_cases, REPLAY)]
    for kernel, args in _trio_workload(datasets).items():
        numpy_out = getattr(reference, kernel)(*args)
        native_out = getattr(native, kernel)(*args)
        for lane, (a, b) in enumerate(zip(numpy_out, native_out)):
            assert np.array_equal(np.asarray(a), np.asarray(b)), (
                f"{kernel} lane {lane} diverged bitwise across backends"
            )
    kernel_rows = []
    trio_numpy = trio_native = 0.0
    for kernel, timing in _trio_in_fresh_process().items():
        numpy_s, native_kernel_s = timing["numpy_s"], timing["native_s"]
        trio_numpy += numpy_s
        trio_native += native_kernel_s
        kernel_rows.append(
            {
                "kernel": kernel,
                "numpy_s": numpy_s,
                "native_s": native_kernel_s,
                "speedup": numpy_s / native_kernel_s,
            }
        )
    trio_speedup = trio_numpy / trio_native

    report = {
        "benchmark": "native kernel backend (RAPMD protocol, k=5)",
        "dataset": "rapmd-fast-preset",
        "replay_factor": REPLAY,
        "n_cases": n_cases,
        "repeats": REPEATS,
        "micro_repeats": MICRO_REPEATS,
        "micro_timing": {"process": "fresh child", "env": NEUTRAL_MALLOC},
        "cpu_count": cpu_count,
        "backend": backend_info(native),
        "end_to_end": {
            "serial_numpy_s": serial_s,
            "vectorized_numpy_s": vectorized_s,
            "vectorized_native_s": native_s,
            "native_vs_serial": serial_s / native_s,
            "native_vs_vectorized_numpy": vectorized_s / native_s,
            "bit_identical_to_serial": True,
        },
        "kernels": kernel_rows,
        "trio": {
            "numpy_s": trio_numpy,
            "native_s": trio_native,
            "speedup": trio_speedup,
            "target_speedup": TARGET_SPEEDUP,
            "meets_target": trio_speedup >= TARGET_SPEEDUP,
        },
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        info = report["backend"]
        print(
            f"\n[native kernels] {n_cases} cases (replay x{REPLAY}), "
            f"{cpu_count} CPU(s), {info.get('compiler')} "
            f"({info.get('compiler_version')}):"
        )
        print(
            f"  end-to-end: serial {serial_s * 1e3:.1f} ms, "
            f"vectorized-numpy {vectorized_s * 1e3:.1f} ms, "
            f"native {native_s * 1e3:.1f} ms "
            f"({vectorized_s / native_s:.2f}x vs vectorized)"
        )
        for row in kernel_rows:
            print(
                f"  {row['kernel']:>18}: numpy {row['numpy_s'] * 1e6:8.1f} us  "
                f"native {row['native_s'] * 1e6:8.1f} us  {row['speedup']:.2f}x"
            )
        print(
            f"  trio: {trio_speedup:.2f}x "
            f"(target {TARGET_SPEEDUP}x, meets_target={report['trio']['meets_target']}); "
            f"report: {REPORT_PATH.name}"
        )

    assert trio_speedup >= TARGET_SPEEDUP, (
        f"native kernel trio {trio_speedup:.2f}x below the {TARGET_SPEEDUP}x "
        f"floor vs the vectorized numpy kernels at fast-preset scale"
    )


if __name__ == "__main__":
    print(json.dumps(_trio_timings()))
