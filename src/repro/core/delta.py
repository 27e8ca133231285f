"""Streaming delta localization: patch cuboid aggregates across ticks.

Production CDN traffic arrives as a 60 s-interval stream over the *same*
leaf schema, yet a stateless run pays the full shared-aggregation cost
every tick even when only a small fraction of leaves changed.  A
:class:`DeltaSession` exploits the streaming structure:

* **Diff** — the incoming leaf table is compared element-wise against the
  previous tick's (``v``, ``f`` and labels); only the changed rows feed
  the patch pass.
* **Patch** — every cuboid aggregate cached on the previous engine is
  rebuilt by subtract-old/add-new on its lanes: the changed rows' linear
  keys for *all* cached cuboids come from one integer matmul (the same
  stride-matrix idiom as
  :meth:`~repro.core.engine.AggregationEngine._aggregate_batch`), and a
  handful of bincounts over those keys yields dense per-group deltas.
  Occupancy, support and group codes are label-independent and shared by
  reference; anomalous support is patched in **exact integer** arithmetic,
  so candidate sets, confidences and RAPScores are bit-identical to a
  cold run on every tick.  The float ``v``/``f`` lanes accumulate
  summation-order rounding instead, which is why they are
* **Re-based** — every :attr:`DeltaConfig.rebase_every` patched ticks, and
  immediately whenever the per-cuboid lane totals drift from the leaf
  table's true sums beyond :attr:`DeltaConfig.drift_rtol`, the float lanes
  are recomputed from the leaves over the engine's cached keys — the same
  summation order as a cold batched pass, so a re-base restores bitwise
  equality with a cold engine.
* **Cold fallback** — a schema/layout change (new attribute value, new
  leaf population) re-anchors the session on a fresh engine; a tick whose
  changed-leaf fraction exceeds the crossover threshold, or whose
  degradation policy steps off the ``delta`` tier, falls back to cold
  (warm-clone) aggregation.  The crossover is a config knob with an
  ``"auto"`` mode that *measures* the break-even point from observed cold
  and patched tick latencies instead of guessing.

The session only supplies engines; running the search stays with
:class:`~repro.core.incremental.StreamingRAPMiner` (the miner-level
wrapper) and :class:`~repro.service.pipeline.LocalizationService` (which
drives a session per monitored stream by default).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..data.dataset import CuboidAggregate, FineGrainedDataset
from ..obs import trace as _trace
from ..resilience.budget import Budget
from ..resilience.degrade import DegradationDecision, DegradationPolicy
from . import kernels
from .engine import AggregationEngine, engine_for

__all__ = ["DeltaConfig", "DeltaStats", "DeltaTick", "DeltaSession"]


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
    rebase_every:
        Scheduled float-lane re-base period, in patched ticks.  Integer
        lanes are exact and never need it; this bounds how far the
        ``v``/``f`` sums can wander from cold bitwise equality.
    drift_rtol:
        Relative tolerance on the per-cuboid lane totals (each cuboid
        partitions the leaves, so its lane must sum to the table total).
        Exceeding it forces an immediate re-base.
    """

    crossover: Union[float, str] = "auto"
    auto_initial: float = 0.25
    auto_bounds: Tuple[float, float] = (0.02, 0.75)
    rebase_every: int = 64
    drift_rtol: float = 1e-7

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
        if self.rebase_every < 1:
            raise ValueError("rebase_every must be at least 1")
        if self.drift_rtol <= 0.0:
            raise ValueError("drift_rtol must be positive")


@dataclass
class DeltaStats:
    """Running tallies of one session's tick mix."""

    ticks: int = 0
    patched_ticks: int = 0
    cold_ticks: int = 0
    rebases: int = 0
    drift_rebases: int = 0
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
    rebased: bool
    decision: Optional[DegradationDecision]


class DeltaSession:
    """Cross-tick engine state for one monitored leaf population.

    Hold one session per stream; feed every tick's labelled dataset to
    :meth:`begin_tick` and run the search against the returned engine.
    Candidates are bit-identical to a stateless run on every tick —
    only the cost changes (see the module docstring for why).
    """

    #: EWMA weight of the newest latency observation in ``"auto"`` mode.
    _EWMA_ALPHA = 0.3

    def __init__(self, config: Optional[DeltaConfig] = None):
        self.config = config if config is not None else DeltaConfig()
        self.stats = DeltaStats()
        self._previous: Optional[FineGrainedDataset] = None
        self._engine: Optional[AggregationEngine] = None
        #: (cached-cuboid keys, stride matrix, offsets, metas, total
        #: capacity) — rebuilt only when the cached-cuboid set changes.
        self._plan: Optional[tuple] = None
        self._since_rebase = 0
        self._cold_seconds: Optional[float] = None
        self._patched_per_row: Optional[float] = None

    def reset(self) -> None:
        """Forget the previous tick (the next one aggregates cold)."""
        self._previous = None
        self._engine = None
        self._plan = None
        self._since_rebase = 0

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
            or self._previous is None
            or self._previous.n_rows == 0
        ):
            return cfg.auto_initial
        # Patched cost is ~linear in changed rows; break even where a
        # fully-changed patch would cost as much as one cold tick.
        full_patch = self._patched_per_row * self._previous.n_rows
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
            return self._cold_tick(dataset, "first_tick", None, start)
        if not engine.compatible_with(dataset):
            self._plan = None
            return self._cold_tick(dataset, "layout_change", None, start)
        decision = None
        if policy is not None:
            decision = policy.decide_delta(dataset.n_rows, budget)
            if decision.tier != "delta":
                return self._cold_tick(
                    dataset, decision.reason or "budget", decision, start
                )
        previous = self._previous
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
                dataset, "fraction", None, start, changed.size, fraction
            )
        clone, patched = self._patch(engine, previous, dataset, changed)
        self._previous = dataset
        self._engine = clone
        rebased = False
        if patched:
            self._since_rebase += 1
            scheduled = self._since_rebase >= self.config.rebase_every
            if scheduled or self._drifted(clone):
                self._refresh_float_lanes(clone)
                self._since_rebase = 0
                rebased = True
                self.stats.rebases += 1
                if not scheduled:
                    self.stats.drift_rebases += 1
                if _trace.ACTIVE:
                    obs.inc(
                        "delta_rebase_total",
                        reason="scheduled" if scheduled else "drift",
                    )
        tick = DeltaTick(
            engine=clone,
            path="patched",
            reason=None,
            changed_rows=int(changed.size),
            changed_fraction=fraction,
            patched_cuboids=patched,
            patch_seconds=time.perf_counter() - start,
            rebased=rebased,
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
        changed_rows: int = 0,
        fraction: float = 1.0,
    ) -> DeltaTick:
        previous = self._engine
        if previous is not None and previous.compatible_with(dataset):
            # Same leaf population: code-derived caches survive, only the
            # label/value lanes re-aggregate (bitwise equal to fully cold).
            engine = previous.warm_clone(dataset)
        else:
            engine = engine_for(dataset)
        self._previous = dataset
        self._engine = engine
        self._since_rebase = 0
        tick = DeltaTick(
            engine=engine,
            path="cold",
            reason=reason,
            changed_rows=changed_rows,
            changed_fraction=fraction,
            patched_cuboids=0,
            patch_seconds=time.perf_counter() - start,
            rebased=False,
            decision=decision,
        )
        self._note(tick)
        return tick

    # -- the patch kernel --------------------------------------------------

    def _build_plan(self, engine: AggregationEngine, keys: List[tuple]) -> tuple:
        """Stride matrix + disjoint offsets over every cached cuboid.

        Mirrors the batched-aggregation layout: column ``j`` of the
        stride matrix maps a leaf's codes to cuboid ``j``'s linear key,
        and the offsets shift each cuboid's key space into a disjoint
        range so one bincount patches every cuboid at once.  Stable
        across ticks (the cached-cuboid set rarely changes), so it is
        memoized on the session.
        """
        stride_matrix = np.zeros((len(engine._sizes), len(keys)), dtype=np.int64)
        offsets = np.empty(len(keys), dtype=np.int64)
        metas: List[Tuple[tuple, int, int]] = []
        total = 0
        for j, indices in enumerate(keys):
            __, strides, capacity = engine._geometry(indices)
            for position, attr in enumerate(indices):
                stride_matrix[attr, j] = strides[position]
            offsets[j] = total
            metas.append((indices, total, capacity))
            total += capacity
        return (tuple(keys), stride_matrix, offsets, metas, total)

    def _patch(
        self,
        engine: AggregationEngine,
        old: FineGrainedDataset,
        new: FineGrainedDataset,
        changed: np.ndarray,
    ) -> Tuple[AggregationEngine, int]:
        """Warm clone of *engine* with every cached aggregate patched.

        Integer lanes (support, anomalous support) are patched exactly;
        ``v``/``f`` get subtract-old/add-new float deltas.  Aggregates
        are immutable by convention, so patched lanes land on *new*
        :class:`CuboidAggregate` objects — per-aggregate caches (the
        confidence vector) can never leak stale values across ticks.
        """
        clone = engine.warm_clone(new)
        keys = sorted(engine._aggregates)
        if not keys:
            return clone, 0
        if changed.size == 0:
            # Identical tick: every cached aggregate is still exact.
            clone._aggregates.update(engine._aggregates)
            return clone, len(keys)
        plan = self._plan
        if plan is None or plan[0] != tuple(keys):
            plan = self._build_plan(engine, keys)
            self._plan = plan
        __, stride_matrix, offsets, metas, total = plan
        n_blocks = len(metas)

        old_labels = old.labels[changed]
        new_labels = new.labels[changed]
        gained = new_labels & ~old_labels
        lost = old_labels & ~new_labels
        v_delta = new.v[changed] - old.v[changed]
        f_delta = new.f[changed] - old.f[changed]
        anomalous_delta, v_dense, f_dense = kernels.delta_patch(
            new.codes[changed], stride_matrix, offsets, total,
            gained, lost, v_delta, f_delta,
        )
        if _trace.ACTIVE:
            obs.inc(
                "engine_bincount_passes_total",
                2 + (2 if anomalous_delta is not None else 0),
                kind="delta_patch",
            )

        shapes = engine._shapes
        for indices, offset, capacity in metas:
            aggregate = engine._aggregates[indices]
            occupied = shapes[indices].occupied
            end = offset + capacity
            if anomalous_delta is None:
                anomalous = aggregate.anomalous_support
            else:
                anomalous = (
                    aggregate.anomalous_support + anomalous_delta[offset:end][occupied]
                )
            clone._aggregates[indices] = CuboidAggregate(
                cuboid=aggregate.cuboid,
                schema=new.schema,
                codes=aggregate.codes,
                support=aggregate.support,
                anomalous_support=anomalous,
                v_sum=aggregate.v_sum + v_dense[offset:end][occupied],
                f_sum=aggregate.f_sum + f_dense[offset:end][occupied],
            )
        return clone, n_blocks

    # -- float-lane hygiene ------------------------------------------------

    def _drifted(self, engine: AggregationEngine) -> bool:
        """True when any patched lane total left the drift tolerance.

        Every cuboid partitions the leaves, so each patched ``v``/``f``
        lane must sum to the leaf table's total up to summation-order
        rounding; incremental float adds slowly widen that gap.
        """
        rtol = self.config.drift_rtol
        dataset = engine.dataset
        total_v = float(dataset.v.sum())
        total_f = float(dataset.f.sum())
        bound_v = rtol * max(1.0, abs(total_v))
        bound_f = rtol * max(1.0, abs(total_f))
        for aggregate in engine._aggregates.values():
            if abs(float(aggregate.v_sum.sum()) - total_v) > bound_v:
                return True
            if abs(float(aggregate.f_sum.sum()) - total_f) > bound_f:
                return True
        return False

    def _refresh_float_lanes(self, engine: AggregationEngine) -> None:
        """Recompute every cached ``v``/``f`` lane from the leaves.

        One weighted bincount per lane over the engine's cached linear
        keys — the warm-refresh summation order, which is bitwise equal
        to a cold batched pass — so after a re-base the session's floats
        match a stateless engine exactly.
        """
        dataset = engine.dataset
        if _trace.ACTIVE:
            obs.inc(
                "engine_bincount_passes_total",
                2 * len(engine._aggregates),
                kind="delta_rebase",
            )
        for indices, aggregate in list(engine._aggregates.items()):
            keys = engine._keys_for(indices)
            capacity = engine._geometry(indices)[2]
            occupied = engine._shapes[indices].occupied
            engine._aggregates[indices] = CuboidAggregate(
                cuboid=aggregate.cuboid,
                schema=aggregate.schema,
                codes=aggregate.codes,
                support=aggregate.support,
                anomalous_support=aggregate.anomalous_support,
                v_sum=kernels.weighted_bincount(keys, dataset.v, capacity)[
                    occupied
                ],
                f_sum=kernels.weighted_bincount(keys, dataset.f, capacity)[
                    occupied
                ],
            )

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
            obs.set_gauge("delta_changed_fraction", tick.changed_fraction)
            obs.set_gauge("delta_crossover_threshold", self.crossover)
            if tick.path == "patched":
                obs.inc("delta_changed_rows_total", tick.changed_rows)
                obs.inc("delta_patched_cuboids_total", tick.patched_cuboids)
                obs.inc("delta_patch_seconds_total", tick.patch_seconds)
