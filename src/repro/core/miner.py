"""The RAPMiner facade: the paper's full two-stage pipeline (Fig. 5).

:class:`RAPMiner` wires Algorithm 1 (CP-based redundant attribute deletion)
into Algorithm 2 (AC-guided layer-by-layer top-down search) and ranks the
surviving candidates with RAPScore (Eq. 3).  Its :meth:`RAPMiner.localize`
method implements the :class:`~repro.baselines.base.Localizer` interface
shared with every baseline, so the experiment harness treats all methods
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .. import obs
from ..data.dataset import FineGrainedDataset
from ..obs import trace as _trace
from ..resilience.budget import Budget
from ..resilience.degrade import DegradationDecision, DegradationPolicy
from .attribute import AttributeCombination
from .classification_power import AttributeDeletionResult, delete_redundant_attributes
from .config import RAPMinerConfig
from .engine import AggregationEngine
from .scoring import RAPCandidate, rank_candidates
from .search import (
    SearchStats,
    batched_layerwise_topdown_search,
    layerwise_topdown_search,
)
from .stacked import StackedCaseEngine, group_datasets_by_layout

__all__ = ["LocalizationResult", "RAPMiner"]


@dataclass
class LocalizationResult:
    """Everything one RAPMiner run produced.

    ``candidates`` is the ranked list (RAPScore descending, truncated to the
    requested ``k``); ``deletion`` and ``stats`` expose stage-1 and stage-2
    diagnostics for the ablation and sensitivity experiments.
    """

    candidates: List[RAPCandidate]
    deletion: Optional[AttributeDeletionResult]
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def patterns(self) -> List[AttributeCombination]:
        """The ranked root anomaly patterns (what Eq. 7's ``Pred`` consumes)."""
        return [c.combination for c in self.candidates]

    def top(self, k: int) -> List[AttributeCombination]:
        """The ``k`` best-ranked patterns."""
        return self.patterns[:k]


class RAPMiner:
    """Root Anomaly Pattern Miner (the paper's contribution).

    Examples
    --------
    >>> from repro.core.config import RAPMinerConfig
    >>> miner = RAPMiner(RAPMinerConfig(t_cp=0.02, t_conf=0.8))
    >>> result = miner.run(labelled_dataset)          # doctest: +SKIP
    >>> result.patterns[:3]                            # doctest: +SKIP
    [(L1, *, *, Site1), ...]
    """

    #: Display name used by the experiment harness and reports.
    name = "RAPMiner"

    def __init__(self, config: Optional[RAPMinerConfig] = None):
        self.config = config if config is not None else RAPMinerConfig()

    def run(
        self,
        dataset: FineGrainedDataset,
        k: Optional[int] = None,
        engine: Optional["AggregationEngine"] = None,
        budget: Optional[Budget] = None,
        degradation: Optional[DegradationPolicy] = None,
        _decision: Optional[DegradationDecision] = None,
    ) -> LocalizationResult:
        """Execute both stages on a labelled leaf table.

        Parameters
        ----------
        dataset:
            Leaf table with anomaly labels attached (the detector's output).
        k:
            Number of RAPs to return; ``None`` returns every candidate,
            ranked.
        engine:
            Aggregation engine for stage 2; defaults to the dataset's
            shared engine.
        budget:
            Cooperative deadline for this run; defaults to a fresh budget
            from ``config.deadline_ms`` (``None`` = unlimited).  Expiry
            ends the search at a layer boundary with
            ``stats.stop_reason == "deadline"`` and the candidates found
            so far.
        degradation:
            Ladder policy overriding ``config.degradation`` (``None``
            inherits it).  The chosen rung lands on
            ``stats.degradation_tier``.

        Returns
        -------
        :class:`LocalizationResult` with ranked candidates and diagnostics.
        """
        cfg = self.config
        if budget is None:
            budget = self._budget_from_config()
        policy = degradation if degradation is not None else cfg.degradation
        with obs.span(
            "miner.run",
            k=k,
            t_cp=cfg.t_cp,
            t_conf=cfg.t_conf,
            attribute_deletion=cfg.enable_attribute_deletion,
        ) as run_span:
            run_span.open_tally()
            if _trace.ACTIVE:
                obs.inc("miner_runs_total")
            decision = _decision
            if decision is None and policy is not None:
                decision = policy.decide_serial(dataset.n_rows, budget)
            if decision is not None and decision.degraded:
                obs.inc(
                    "resilience_degrade_total",
                    tier=decision.tier,
                    reason=decision.reason or "none",
                )
            tier = decision.tier if decision is not None else None
            max_layer = cfg.max_layer
            if decision is not None and decision.max_layer is not None:
                max_layer = (
                    decision.max_layer
                    if max_layer is None
                    else min(max_layer, decision.max_layer)
                )
            deletion: Optional[AttributeDeletionResult] = None
            if cfg.enable_attribute_deletion:
                deletion = delete_redundant_attributes(dataset, cfg.t_cp)
                attribute_indices = deletion.kept_indices
            else:
                attribute_indices = tuple(range(dataset.schema.n_attributes))

            if dataset.n_anomalous == 0:
                run_span.set(n_candidates=0, outcome="no_anomalous_leaves")
                return LocalizationResult(
                    candidates=[],
                    deletion=deletion,
                    stats=SearchStats(
                        stop_reason="no_anomalous_leaves", degradation_tier=tier
                    ),
                )

            outcome = layerwise_topdown_search(
                dataset,
                attribute_indices,
                t_conf=cfg.t_conf,
                early_stop=cfg.early_stop,
                max_layer=max_layer,
                engine=engine,
                budget=budget,
            )
            outcome.stats.degradation_tier = tier
            ranked = self._rank(outcome.candidates, k)
            run_span.set(n_candidates=len(ranked), outcome="localized")
            return LocalizationResult(
                candidates=ranked, deletion=deletion, stats=outcome.stats
            )

    def _budget_from_config(self) -> Optional[Budget]:
        """A fresh budget from ``config.deadline_ms`` (``None`` = unlimited)."""
        cfg = self.config
        if cfg.deadline_clock is not None:
            return Budget.from_ms(cfg.deadline_ms, clock=cfg.deadline_clock)
        return Budget.from_ms(cfg.deadline_ms)

    def _rank(
        self, candidates: List[RAPCandidate], k: Optional[int]
    ) -> List[RAPCandidate]:
        """The configured ranking (Eq. 3 or raw confidence), truncated to *k*."""
        if self.config.layer_normalized_ranking:
            return rank_candidates(candidates, k)
        ranked = sorted(
            candidates,
            key=lambda c: (-c.confidence, -c.support, c.combination.sort_key()),
        )
        if k is not None:
            ranked = ranked[:k]
        return ranked

    def run_batch(
        self,
        datasets: Sequence[FineGrainedDataset],
        k: Optional[int] = None,
        budget: Optional[Budget] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> List["LocalizationResult"]:
        """Both stages over a batch of leaf tables, case-stacked.

        Datasets sharing a ``(schema, leaf-index)`` layout are grouped
        and localized together through a
        :class:`~repro.core.stacked.StackedCaseEngine`: Algorithm 1's CP
        bincounts, each BFS layer's aggregation and the Criteria-2
        threshold probe run once per group instead of once per case.
        Cases keep different attribute sets after Algorithm 1, and one
        search walks the union of the group's kept sets, each case over
        its own cuboids of each layer; layer 1 reuses the CP pass.
        Per-case control flow (attribute deletion outcomes, Criteria-3
        pruning, coverage early stop, each case's own depth, ranking)
        replays the serial semantics exactly.  The returned results — candidates,
        scores, stats and stop reasons — are bit-identical to calling
        :meth:`run` on every dataset individually, in input order.

        ``budget`` is shared by the whole batch.  With a degradation
        policy (``degradation`` or ``config.degradation``) the batch runs
        case by case through :meth:`run` under that policy and the shared
        budget, so each case's depth cap is decided as the budget drains.
        """
        cfg = self.config
        if budget is None:
            budget = self._budget_from_config()
        policy = degradation if degradation is not None else cfg.degradation
        datasets = list(datasets)
        if not datasets:
            return []
        if policy is not None:
            return [
                self.run(dataset, k, budget=budget, degradation=policy)
                for dataset in datasets
            ]
        results: List[Optional[LocalizationResult]] = [None] * len(datasets)
        groups = group_datasets_by_layout(datasets)
        with obs.span(
            "miner.run_batch",
            n_cases=len(datasets),
            n_groups=len(groups),
            k=k,
            t_cp=cfg.t_cp,
            t_conf=cfg.t_conf,
        ) as run_span:
            if _trace.ACTIVE:
                obs.inc("stacked_groups_total", len(groups))
                obs.inc("stacked_batch_cases_total", len(datasets))
            for group in groups:
                stacked = StackedCaseEngine(
                    [datasets[i] for i in group], _same_layout=True
                )
                if cfg.enable_attribute_deletion:
                    deletions: List[Optional[AttributeDeletionResult]] = list(
                        stacked.attribute_deletions(cfg.t_cp)
                    )
                    kept = [deletion.kept_indices for deletion in deletions]
                else:
                    deletions = [None] * len(group)
                    kept = [tuple(range(stacked.schema.n_attributes))] * len(group)
                # Cases diverge after stage 1: each searches its own kept
                # set, and one search walks the union lattice for all.
                outcomes = batched_layerwise_topdown_search(
                    stacked,
                    range(len(group)),
                    kept,
                    t_conf=cfg.t_conf,
                    early_stop=cfg.early_stop,
                    max_layer=cfg.max_layer,
                    budget=budget,
                )
                for case_index, deletion, outcome in zip(group, deletions, outcomes):
                    results[case_index] = LocalizationResult(
                        candidates=self._rank(outcome.candidates, k),
                        deletion=deletion,
                        stats=outcome.stats,
                    )
            run_span.set(n_cases=len(datasets), outcome="localized")
        return results

    def localize(
        self, dataset: FineGrainedDataset, k: Optional[int] = None
    ) -> List[AttributeCombination]:
        """Uniform :class:`~repro.baselines.base.Localizer` entry point."""
        return self.run(dataset, k).patterns
