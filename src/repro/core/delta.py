"""Streaming delta localization: patch cuboid aggregates across ticks.

Production CDN traffic arrives as a 60 s-interval stream over the *same*
leaf schema, yet a stateless run pays the full shared-aggregation cost
every tick even when only a small fraction of leaves changed.  A
:class:`DeltaSession` exploits the streaming structure:

* **Diff** — the incoming leaf table is compared element-wise against the
  previous tick's (``v``, ``f`` and labels); only the changed rows feed
  the patch pass.
* **Patch** — every cuboid aggregate cached on the previous engine is
  carried to the new tick by
  :meth:`~repro.core.engine.AggregationEngine.patched_clone`.  Occupancy,
  support and group codes are label-independent and shared by reference.
  Anomalous support moves only where a label flipped: the flipped rows'
  linear keys for *all* cached cuboids come from one integer matmul over
  the engine's stride plan (the layout its cold batched pass uses), and
  two bincounts over them give the dense per-group delta, applied in
  **exact integer** arithmetic.  A tick without label flips runs no kernel
  at all.  Candidate sets, confidences and RAPScores are therefore
  bit-identical to a cold run on every tick.
* **Lazy value lanes** — the ``v``/``f`` sums are never patched: each
  carried aggregate gets a fresh :class:`~repro.core.engine.LaneSpec`
  over the new tick's arrays, which computes a lane from the leaves on
  first read.  The lanes are therefore exactly a cold engine's on every
  tick, with no float drift to correct.
* **Cold fallback** — a schema/layout change (new attribute value, new
  leaf population) re-anchors the session on a fresh engine; a tick whose
  changed-leaf fraction exceeds the crossover threshold, or whose
  degradation policy steps off the ``delta`` tier, falls back to cold
  (warm-clone) aggregation.  The crossover is a config knob with an
  ``"auto"`` mode that *measures* the break-even point from observed cold
  and patched tick latencies instead of guessing.

The session is the one place an engine passes from one interval to the
next.  It only supplies engines; running the search stays with its
owners: :class:`StreamingRAPMiner` (the miner-level wrapper below),
:class:`~repro.service.pipeline.LocalizationService` (a session per
monitored stream) and the fleet's workers
(:class:`~repro.fleet.supervisor.FleetSupervisor`, a session per worker).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..data.dataset import FineGrainedDataset
from ..obs import trace as _trace
from ..resilience.budget import Budget
from ..resilience.degrade import DegradationDecision, DegradationPolicy
from .attribute import AttributeCombination
from .config import RAPMinerConfig
from .engine import AggregationEngine, engine_for, release_engine
from .miner import LocalizationResult, RAPMiner

__all__ = [
    "DeltaConfig",
    "DeltaStats",
    "DeltaTick",
    "DeltaSession",
    "StreamingRAPMiner",
]


@dataclass
class DeltaConfig:
    """Knobs steering a :class:`DeltaSession`.

    Parameters
    ----------
    crossover:
        Changed-leaf fraction above which a tick falls back to cold
        aggregation.  A float in ``(0, 1]`` pins the threshold; the
        default ``"auto"`` measures it: the session keeps exponential
        moving averages of cold-tick latency and patched per-changed-row
        latency (fed by :meth:`DeltaSession.record_tick_seconds`) and
        solves for the break-even fraction, clamped to *auto_bounds*.
    auto_initial:
        Threshold used by ``"auto"`` until both sides of the break-even
        have been measured at least once.
    auto_bounds:
        ``(lo, hi)`` clamp on the measured auto threshold, so one noisy
        observation can never pin the session to all-cold or all-patched.
    """

    crossover: Union[float, str] = "auto"
    auto_initial: float = 0.25
    auto_bounds: Tuple[float, float] = (0.02, 0.75)

    def __post_init__(self) -> None:
        if self.crossover != "auto":
            fraction = float(self.crossover)
            if not 0.0 < fraction <= 1.0:
                raise ValueError('crossover must be in (0, 1] or "auto"')
            self.crossover = fraction
        lo, hi = self.auto_bounds
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError("auto_bounds must satisfy 0 < lo <= hi <= 1")
        if not lo <= self.auto_initial <= hi:
            raise ValueError("auto_initial must lie within auto_bounds")


@dataclass
class DeltaStats:
    """Running tallies of one session's tick mix.

    ``rebases`` is always 0: the value lanes are computed from the leaves
    when read, so there is no float drift to re-base.  The field stays
    because benchmark reports read it.
    """

    ticks: int = 0
    patched_ticks: int = 0
    cold_ticks: int = 0
    rebases: int = 0
    changed_rows: int = 0
    patched_cuboids: int = 0
    patch_seconds: float = 0.0
    last_path: Optional[str] = None
    last_reason: Optional[str] = None
    last_changed_fraction: Optional[float] = None


@dataclass
class DeltaTick:
    """What :meth:`DeltaSession.begin_tick` resolved for one interval.

    ``path`` is ``"patched"`` or ``"cold"``; ``reason`` says why a cold
    tick went cold (``"first_tick"``, ``"layout_change"``,
    ``"fraction"``, ``"budget"`` or ``"leaf_count"``) and is ``None`` on
    the patched path.  ``changed_fraction`` is 1.0 when the tick went
    cold before the diff was computed.  ``decision`` carries the
    degradation rung to forward to the miner (``None`` without a
    policy).
    """

    engine: AggregationEngine
    path: str
    reason: Optional[str]
    changed_rows: int
    changed_fraction: float
    patched_cuboids: int
    patch_seconds: float
    decision: Optional[DegradationDecision]

    #: Always ``False`` (see :attr:`DeltaStats.rebases`).
    rebased = False


class DeltaSession:
    """Cross-tick engine state for one monitored leaf population.

    Hold one session per stream; feed every tick's labelled dataset to
    :meth:`begin_tick` and run the search against the returned engine.
    Candidates are bit-identical to a stateless run on every tick —
    only the cost changes (see the module docstring for why).  The engine
    a tick replaces is released from its dataset
    (:func:`~repro.core.engine.release_engine`), so a tick the caller
    drops is freed by reference counting.
    """

    #: EWMA weight of the newest latency observation in ``"auto"`` mode.
    _EWMA_ALPHA = 0.3

    def __init__(self, config: Optional[DeltaConfig] = None):
        self.config = config if config is not None else DeltaConfig()
        self.stats = DeltaStats()
        #: The previous tick's engine; its dataset is the previous tick.
        self._engine: Optional[AggregationEngine] = None
        self._cold_seconds: Optional[float] = None
        self._patched_per_row: Optional[float] = None

    def reset(self) -> None:
        """Forget the previous tick (the next one aggregates cold).

        The held engine is released from its dataset, so a caller that
        drops the dataset frees both by reference counting.
        """
        if self._engine is not None:
            release_engine(self._engine)
        self._engine = None

    # -- crossover ---------------------------------------------------------

    @property
    def crossover(self) -> float:
        """The effective changed-fraction threshold for this tick."""
        cfg = self.config
        if cfg.crossover != "auto":
            return float(cfg.crossover)
        lo, hi = cfg.auto_bounds
        if (
            self._cold_seconds is None
            or self._patched_per_row is None
            or self._engine is None
            or self._engine.dataset.n_rows == 0
        ):
            return cfg.auto_initial
        # Patched cost is ~linear in changed rows; break even where a
        # fully-changed patch would cost as much as one cold tick.
        full_patch = self._patched_per_row * self._engine.dataset.n_rows
        if full_patch <= 0.0:
            return hi
        return min(hi, max(lo, self._cold_seconds / full_patch))

    def record_tick_seconds(self, tick: DeltaTick, seconds: float) -> None:
        """Feed one tick's end-to-end latency to the auto-crossover model.

        Callers that time the whole localization (diff + patch + search)
        should report it here; the session cannot observe the search cost
        itself.  Harmless no-op data-wise when ``crossover`` is pinned.
        """
        if seconds <= 0.0:
            return
        alpha = self._EWMA_ALPHA
        if tick.path == "cold":
            if self._cold_seconds is None:
                self._cold_seconds = seconds
            else:
                self._cold_seconds += alpha * (seconds - self._cold_seconds)
        elif tick.changed_rows > 0:
            per_row = seconds / tick.changed_rows
            if self._patched_per_row is None:
                self._patched_per_row = per_row
            else:
                self._patched_per_row += alpha * (per_row - self._patched_per_row)

    # -- tick resolution ---------------------------------------------------

    def begin_tick(
        self,
        dataset: FineGrainedDataset,
        budget: Optional[Budget] = None,
        policy: Optional[DegradationPolicy] = None,
    ) -> DeltaTick:
        """Resolve the engine for one interval's labelled leaf table.

        Returns a :class:`DeltaTick` whose engine is installed as the
        dataset's shared engine (so impact roll-ups and baselines reuse
        it) and whose ``decision`` should be forwarded to the miner when
        a degradation *policy* is active.
        """
        start = time.perf_counter()
        engine = self._engine
        if engine is None:
            return self._cold_tick(dataset, "first_tick", None, start, compatible=False)
        if not engine.compatible_with(dataset):
            return self._cold_tick(
                dataset, "layout_change", None, start, compatible=False
            )
        decision = None
        if policy is not None:
            decision = policy.decide_delta(dataset.n_rows, budget)
            if decision.tier != "delta":
                return self._cold_tick(
                    dataset,
                    decision.reason or "budget",
                    decision,
                    start,
                    compatible=True,
                )
        previous = engine.dataset
        changed = np.flatnonzero(
            (previous.v != dataset.v)
            | (previous.f != dataset.f)
            | (previous.labels != dataset.labels)
        )
        n_rows = dataset.n_rows
        fraction = changed.size / n_rows if n_rows else 0.0
        if fraction > self.crossover:
            # Cold for cost reasons, not policy ones: let the miner make
            # its own serial-ladder decision instead of inheriting "delta".
            return self._cold_tick(
                dataset,
                "fraction",
                None,
                start,
                compatible=True,
                changed_rows=changed.size,
                fraction=fraction,
            )
        clone, patched = engine.patched_clone(dataset, changed)
        self._engine = clone
        release_engine(engine)
        tick = DeltaTick(
            engine=clone,
            path="patched",
            reason=None,
            changed_rows=int(changed.size),
            changed_fraction=fraction,
            patched_cuboids=patched,
            patch_seconds=time.perf_counter() - start,
            decision=decision,
        )
        self._note(tick)
        return tick

    def _cold_tick(
        self,
        dataset: FineGrainedDataset,
        reason: str,
        decision: Optional[DegradationDecision],
        start: float,
        compatible: bool,
        changed_rows: int = 0,
        fraction: float = 1.0,
    ) -> DeltaTick:
        """Resolve a tick without patching.

        *compatible* is :meth:`begin_tick`'s verdict on whether *dataset*
        shares the held engine's leaf population, so the codes are
        compared once per tick (``warm_clone`` keeps its own guard).
        """
        previous = self._engine
        if compatible:
            # Same leaf population: code-derived caches survive, only the
            # label counts re-aggregate (bitwise equal to fully cold).
            engine = previous.warm_clone(dataset)
        else:
            engine = engine_for(dataset)
        self._engine = engine
        if previous is not None and previous is not engine:
            release_engine(previous)
        tick = DeltaTick(
            engine=engine,
            path="cold",
            reason=reason,
            changed_rows=changed_rows,
            changed_fraction=fraction,
            patched_cuboids=0,
            patch_seconds=time.perf_counter() - start,
            decision=decision,
        )
        self._note(tick)
        return tick

    # -- bookkeeping -------------------------------------------------------

    def _note(self, tick: DeltaTick) -> None:
        stats = self.stats
        stats.ticks += 1
        stats.last_path = tick.path
        stats.last_reason = tick.reason
        stats.last_changed_fraction = tick.changed_fraction
        if tick.path == "patched":
            stats.patched_ticks += 1
            stats.changed_rows += tick.changed_rows
            stats.patched_cuboids += tick.patched_cuboids
            stats.patch_seconds += tick.patch_seconds
        else:
            stats.cold_ticks += 1
        if _trace.ACTIVE:
            obs.inc("delta_ticks_total", path=tick.path, reason=tick.reason or "none")


class StreamingRAPMiner:
    """RAPMiner over a tick stream, with delta-patched aggregation.

    Each :meth:`run` call is one tick.  The session diffs the incoming
    leaf table against the previous tick's and, below the crossover
    threshold, patches every cached cuboid aggregate instead of
    re-aggregating cold (see the module docstring for the exact
    bitwise-equivalence contract).  Candidates are always identical to a
    stateless :class:`RAPMiner` on the same tick; only the cost — and,
    under a :class:`~repro.resilience.DegradationPolicy`, the reported
    ``degradation_tier`` (``"delta"`` on patched ticks) — differs.

    Parameters
    ----------
    config:
        Underlying :class:`RAPMinerConfig`, shared with the wrapped
        miner (deadline and degradation defaults apply per tick).
    delta:
        :class:`DeltaConfig` steering the session (crossover threshold).
    """

    name = "StreamingRAPMiner"

    def __init__(
        self,
        config: Optional[RAPMinerConfig] = None,
        delta: Optional[DeltaConfig] = None,
    ):
        self._miner = RAPMiner(config)
        self.session = DeltaSession(delta)

    @property
    def config(self) -> RAPMinerConfig:
        """The wrapped miner's config (rebinding it retunes both paths)."""
        return self._miner.config

    @config.setter
    def config(self, value: RAPMinerConfig) -> None:
        self._miner.config = value

    @property
    def stats(self) -> DeltaStats:
        """The session's tick mix (patched vs cold, churn)."""
        return self.session.stats

    def reset(self) -> None:
        """Drop cross-tick state (the next tick aggregates cold)."""
        self.session.reset()

    def run(
        self,
        dataset: FineGrainedDataset,
        k: Optional[int] = None,
        budget: Optional[Budget] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> LocalizationResult:
        """Localize one tick against the delta-patched engine."""
        if budget is None:
            budget = self._miner._budget_from_config()
        policy = degradation if degradation is not None else self.config.degradation
        with obs.span("streaming.run", k=k) as run_span:
            started = time.perf_counter()
            tick = self.session.begin_tick(dataset, budget=budget, policy=policy)
            result = self._miner.run(
                dataset,
                k,
                engine=tick.engine,
                budget=budget,
                degradation=policy,
                _decision=tick.decision,
            )
            self.session.record_tick_seconds(tick, time.perf_counter() - started)
            run_span.set(
                path=tick.path,
                reason=tick.reason or "none",
                changed_rows=tick.changed_rows,
                n_candidates=len(result.candidates),
            )
            return result

    def localize(
        self, dataset: FineGrainedDataset, k: Optional[int] = None
    ) -> List[AttributeCombination]:
        """Uniform :class:`~repro.baselines.base.Localizer` entry point."""
        return self.run(dataset, k).patterns
