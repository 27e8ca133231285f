"""Warm-start localization across consecutive time points of one incident.

The paper localizes each alarmed time point independently, but a real
incident spans many collection intervals (the paper's trace alarms every
60 s) and its root anomaly patterns rarely change between adjacent
intervals.  :class:`IncrementalRAPMiner` exploits that in two tiers:

1. **Prescreen** — re-verify the previous interval's patterns against the
   new labels through the engine's inverted index: Criteria 2 per pattern,
   no parent lit up, and the old patterns still explain at least
   ``min_coverage`` of the new anomalous leaves.  This costs a handful of
   posting-list intersections and fails fast on the common churn cases
   (pattern went quiet, incident widened, new unexplained anomalies).
2. **Exact replay** — when the prescreen passes, the full two-stage
   pipeline still runs, but on a *warm* :class:`AggregationEngine` cloned
   from the previous interval: linear keys, posting lists and per-cuboid
   occupancy/support all survive (they depend only on the leaf codes,
   which are stable across the intervals of one incident), so each cuboid
   visit is one fused label/value bincount over cached keys instead of a
   cold aggregation.  If the replay reproduces the cached pattern set the
   interval counts as a fast-path hit; either way the caller receives
   exactly what a stateless :class:`RAPMiner` would have produced.

Why replay instead of trusting the verified patterns?  Per-pattern checks
cannot be sound on their own: the stateless search may return a *different*
decomposition even when every cached pattern is still individually valid —
a sibling combination in an earlier-visited cuboid can become confident and
either join the result or, under early stop, displace later patterns
entirely.  Detecting that requires visiting the same cuboids the search
visits, so the cheapest *exact* fast path is the search itself on warm
caches.  The prescreen merely avoids even that when the incident visibly
changed.

:class:`StreamingRAPMiner` goes one step further down the same road: where
the incremental miner re-aggregates each cuboid it visits from the leaves
(cheap bincounts over warm keys), the streaming miner drives a
:class:`~repro.core.delta.DeltaSession` that *patches* the previous tick's
cached aggregates from the changed rows alone — the right tool when ticks
arrive as a low-churn stream over one leaf population.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs
from ..data.dataset import FineGrainedDataset
from ..obs import trace as _trace
from ..resilience.budget import Budget
from ..resilience.degrade import DegradationPolicy
from .attribute import AttributeCombination
from .config import RAPMinerConfig
from .delta import DeltaConfig, DeltaSession, DeltaStats
from .engine import AggregationEngine, engine_for
from .miner import LocalizationResult, RAPMiner

__all__ = ["IncrementalStats", "IncrementalRAPMiner", "StreamingRAPMiner"]


@dataclass
class IncrementalStats:
    """How often each path ran."""

    fast_path_hits: int = 0
    full_runs: int = 0

    @property
    def total(self) -> int:
        return self.fast_path_hits + self.full_runs


class IncrementalRAPMiner:
    """RAPMiner with cross-interval warm starting.

    Results are always identical to a stateless :class:`RAPMiner` run on
    the same interval; the warm start changes only the cost.  An interval
    counts as a *fast-path hit* when the prescreen accepted the cached
    patterns and the (warm) replay reproduced them exactly.

    Parameters
    ----------
    config:
        Underlying :class:`RAPMinerConfig` (shared by both paths).
    min_coverage:
        Fraction of the new interval's anomalous leaves the previous
        patterns must still explain for the prescreen to pass.  Purely a
        prescreen knob — it decides how eagerly the cached patterns are
        abandoned, never what the caller receives.
    """

    name = "IncrementalRAPMiner"

    def __init__(
        self,
        config: Optional[RAPMinerConfig] = None,
        min_coverage: float = 0.95,
    ):
        if not 0.0 < min_coverage <= 1.0:
            raise ValueError("min_coverage must be in (0, 1]")
        self._miner = RAPMiner(config)
        self.config = self._miner.config
        self.min_coverage = min_coverage
        self.stats = IncrementalStats()
        self._previous: Optional[List[AttributeCombination]] = None
        self._engine: Optional[AggregationEngine] = None

    def reset(self) -> None:
        """Forget the cached patterns (e.g. after an incident closes)."""
        self._previous = None
        self._engine = None

    # -- engine adoption ----------------------------------------------------------

    def _adopt_engine(
        self, dataset: FineGrainedDataset
    ) -> "Tuple[AggregationEngine, bool]":
        """The engine for this interval (plus whether it was warm-cloned).

        A clone is taken when the new interval has the same schema and leaf
        codes as the previous one (the persisted-incident case): every
        code-derived cache survives, only label/value-dependent aggregates
        are recomputed.  Otherwise the dataset's own shared engine is used.
        Holding the engine keeps (at most) one previous interval alive.
        """
        previous = self._engine
        warm_cloned = (
            previous is not None
            and previous.dataset is not dataset
            and previous.compatible_with(dataset)
        )
        if warm_cloned:
            engine = previous.warm_clone(dataset)
        else:
            engine = engine_for(dataset)
        self._engine = engine
        return engine, warm_cloned

    # -- fast-path prescreen ------------------------------------------------------

    def _prescreen(self, dataset: FineGrainedDataset, engine: AggregationEngine) -> bool:
        """Cheap necessary conditions for the cached patterns to survive."""
        assert self._previous is not None
        t_conf = self.config.t_conf
        n_anomalous = dataset.n_anomalous
        if n_anomalous == 0:
            return False
        explained = 0
        seen = None
        for pattern in self._previous:
            rows = engine.rows_of(pattern)
            support = int(rows.size)
            if support == 0:
                return False
            anomalous_support = int(dataset.labels[rows].sum())
            if anomalous_support <= t_conf * support:
                return False  # the pattern went quiet
            for parent in pattern.parents():
                if parent.layer >= 1 and engine.confidence(parent) > t_conf:
                    return False  # incident widened: a coarser scope lit up
            anomalous_rows = rows[dataset.labels[rows]]
            if seen is None:
                seen = set(anomalous_rows.tolist())
            else:
                seen.update(anomalous_rows.tolist())
            explained = len(seen)
        # New anomalies the old patterns cannot explain force a cold look.
        return explained >= self.min_coverage * n_anomalous

    # -- public API -----------------------------------------------------------------

    def run(self, dataset: FineGrainedDataset, k: Optional[int] = None) -> LocalizationResult:
        """Localize one interval, warm-starting from the previous result."""
        with obs.span("incremental.run", k=k) as run_span:
            engine, warm_cloned = self._adopt_engine(dataset)
            if self._previous:
                prescreen = "passed" if self._prescreen(dataset, engine) else "failed"
            else:
                prescreen = "no_previous"
            replay_expected = prescreen == "passed"
            # Run untruncated and cache the complete candidate list, so a small
            # k does not starve the next interval's verification.
            full = self._miner.run(dataset, None, engine=engine)
            found = [c.combination for c in full.candidates]
            fast_path = replay_expected and set(found) == set(self._previous or [])
            if fast_path:
                self.stats.fast_path_hits += 1
            else:
                self.stats.full_runs += 1
            self._previous = found or None
            run_span.set(
                warm_cloned=warm_cloned,
                prescreen=prescreen,
                fast_path=fast_path,
                n_candidates=len(found),
            )
            if _trace.ACTIVE:
                obs.inc(
                    "incremental_runs_total",
                    path="fast_path" if fast_path else "full_run",
                )
                obs.inc("incremental_prescreen_total", outcome=prescreen)
            if k is None:
                return full
            return LocalizationResult(
                candidates=full.candidates[:k], deletion=full.deletion, stats=full.stats
            )

    def localize(
        self, dataset: FineGrainedDataset, k: Optional[int] = None
    ) -> List[AttributeCombination]:
        """Uniform :class:`~repro.baselines.base.Localizer` entry point."""
        return self.run(dataset, k).patterns


class StreamingRAPMiner:
    """RAPMiner over a tick stream, with delta-patched aggregation.

    Each :meth:`run` call is one tick.  The session diffs the incoming
    leaf table against the previous tick's and, below the crossover
    threshold, patches every cached cuboid aggregate instead of
    re-aggregating cold (see :mod:`repro.core.delta` for the exact
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
        :class:`~repro.core.delta.DeltaConfig` steering the session
        (crossover threshold).
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
