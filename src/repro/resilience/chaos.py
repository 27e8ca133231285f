"""Deterministic fault injection for the resilience test suite.

Everything here injects one of the failure modes the serving path must
survive, reproducibly under a seed:

* **NaN lanes / truncated leaf tables** — :func:`corrupt_values` damages
  an interval's value vector the way a collection gap does (missing
  lanes, short reads).
* **Flaky stages** — :class:`FlakyForecaster` / :class:`FlakyDetector`
  wrap a real implementation and raise for the first *fail_times* calls
  (then recover), exercising retry, breaker, and fallback paths without
  randomness.
* **Slow stages** — :class:`SlowDetector` burns an injectable clock so
  deadline budgets drain mid-interval.
* **Worker crashes** — :class:`CrashOnceLocalizer` raises on its first
  invocation *per marker file*; the marker lives on disk, so the latch
  holds across workers and processes: the first attempt crashes, the
  requeued attempt succeeds.  :class:`AlwaysCrashLocalizer` never
  recovers, driving the per-case error-record path.

This module is imported explicitly (``from repro.resilience import
chaos``); it is kept off the package's eager surface because it pulls in
the detection stack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..core.attribute import AttributeCombination
from ..data.dataset import FineGrainedDataset
from ..detection.detectors import Detector
from ..detection.forecasting import Forecaster

__all__ = [
    "ChaosConfig",
    "corrupt_values",
    "FlakyForecaster",
    "FlakyDetector",
    "SlowDetector",
    "CrashOnceLocalizer",
    "AlwaysCrashLocalizer",
    "WorkerCrash",
]


@dataclass
class ChaosConfig:
    """Knobs of one deterministic corruption pass.

    ``nan_fraction`` of the lanes are overwritten with NaN;
    ``truncate_fraction`` of the tail is dropped (a short read).  Which
    lanes go NaN is drawn from the seeded generator, so a given
    ``(seed, step)`` always damages the same lanes.
    """

    seed: int = 0
    nan_fraction: float = 0.0
    truncate_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.nan_fraction <= 1.0:
            raise ValueError("nan_fraction must lie in [0, 1]")
        if not 0.0 <= self.truncate_fraction < 1.0:
            raise ValueError("truncate_fraction must lie in [0, 1)")


def corrupt_values(
    values: np.ndarray, config: ChaosConfig, step: int = 0
) -> np.ndarray:
    """A damaged copy of *values*: NaN lanes, then tail truncation.

    The generator is re-seeded from ``(config.seed, step)`` so replaying
    a trace injects identical damage regardless of call order.
    """
    values = np.asarray(values, dtype=float).copy()
    rng = np.random.default_rng((config.seed, step))
    n = values.shape[0]
    if config.nan_fraction > 0.0 and n:
        n_nan = int(round(config.nan_fraction * n))
        if n_nan:
            lanes = rng.choice(n, size=min(n_nan, n), replace=False)
            values[lanes] = np.nan
    if config.truncate_fraction > 0.0 and n:
        keep = n - int(round(config.truncate_fraction * n))
        values = values[: max(keep, 1)]
    return values


class FlakyForecaster(Forecaster):
    """Raises for the first *fail_times* forecasts, then delegates."""

    def __init__(self, inner: Forecaster, fail_times: int = 1):
        self.inner = inner
        self.fail_times = fail_times
        self.calls = 0

    def forecast(self, history: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError(
                f"injected forecaster fault (call {self.calls}/{self.fail_times})"
            )
        return self.inner.forecast(history)


class FlakyDetector(Detector):
    """Raises for the first *fail_times* detections, then delegates."""

    def __init__(self, inner: Detector, fail_times: int = 1):
        self.inner = inner
        self.fail_times = fail_times
        self.calls = 0

    def detect(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError(
                f"injected detector fault (call {self.calls}/{self.fail_times})"
            )
        return self.inner.detect(v, f)


class SlowDetector(Detector):
    """Delegates after burning *delay_s* on the injectable *sleep*.

    Pair with a :class:`~repro.resilience.budget.StepClock`-backed budget
    (or a shared fake clock) to drain a deadline deterministically
    without real waiting.
    """

    def __init__(
        self,
        inner: Detector,
        delay_s: float,
        sleep: Callable[[float], None] = None,
    ):
        import time

        self.inner = inner
        self.delay_s = delay_s
        self.sleep = sleep if sleep is not None else time.sleep

    def detect(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        self.sleep(self.delay_s)
        return self.inner.detect(v, f)


class WorkerCrash(RuntimeError):
    """The injected crash raised inside a fleet worker."""


class CrashOnceLocalizer:
    """Crashes the first worker that runs it, succeeds on the requeue.

    The latch is a marker file, so the "already crashed" state survives
    any thread or process boundary: attempt one creates the marker and
    raises :class:`WorkerCrash`; the requeued attempt sees the marker
    and delegates to the inner localizer.
    """

    name = "CrashOnce"

    def __init__(self, inner, marker_path: str):
        self.inner = inner
        self.marker_path = marker_path

    def localize(
        self, dataset: FineGrainedDataset, k: Optional[int] = None
    ) -> List[AttributeCombination]:
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as handle:
                handle.write("crashed\n")
            raise WorkerCrash("injected one-shot worker crash")
        return self.inner.localize(dataset, k)


class AlwaysCrashLocalizer:
    """Never succeeds — drives the per-case error-record path."""

    name = "AlwaysCrash"

    def localize(
        self, dataset: FineGrainedDataset, k: Optional[int] = None
    ) -> List[AttributeCombination]:
        raise WorkerCrash("injected persistent worker crash")
