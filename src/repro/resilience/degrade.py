"""Graceful-degradation ladder for the search kernels.

When a deadline budget is near exhaustion, or a case is simply too big
to finish at full depth inside the interval, the right move is not to
fail — it is to spend what is left on the *coarsest* layers, where RAPs
live by definition (the paper's Definition 1 prefers ancestors).  The
ladder steps down along

    ``delta -> full -> layer_capped``

* **delta** — the streaming patch path
  (:class:`repro.core.delta.DeltaSession`): cross-tick aggregate
  patching, the cheapest rung but one that accumulates per-stream state;
  a draining budget steps it down to a cold-full tick so expiry never
  lands on patch bookkeeping;
* **full** — one stateless serial search, cold aggregation;
* **layer_capped** — the same search with a hard BFS depth cap, the
  last resort that bounds a single search's work outright.

:meth:`repro.core.miner.RAPMiner.run_batch` under a policy runs its
cases one by one through these rungs, so a draining budget stops
between cases.

Every decision is recorded on ``SearchStats.degradation_tier`` (and the
``resilience_degrade_total{tier=...}`` counter), so a report always says
which rung produced it.  A ``None`` policy means no ladder: behavior and
results are exactly the pre-resilience code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .budget import Budget

__all__ = ["DegradationDecision", "DegradationPolicy", "TIERS"]

#: The ladder, fastest-degrading last.
TIERS = ("delta", "full", "layer_capped")


@dataclass(frozen=True)
class DegradationDecision:
    """One resolved rung of the ladder.

    ``tier`` is the rung chosen (one of :data:`TIERS`); ``max_layer`` is
    the BFS depth cap to apply (``None`` = uncapped); ``reason`` says
    what forced the step down (``"budget"`` or ``"leaf_count"``,
    ``None`` when nothing did).
    """

    tier: str
    max_layer: Optional[int] = None
    reason: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.reason is not None


@dataclass
class DegradationPolicy:
    """Thresholds steering the ladder.

    Parameters
    ----------
    budget_fraction:
        Step one rung down (delta -> full) once the budget's remaining
        fraction falls below this.
    critical_fraction:
        Step to ``layer_capped`` once the remaining fraction falls below
        this (must not exceed *budget_fraction*).
    leaf_limit:
        A single case with more leaves than this is layer-capped
        outright — at that scale deep layers cannot finish inside an
        interval regardless of budget.
    capped_layer:
        The BFS depth the ``layer_capped`` rung enforces.
    """

    budget_fraction: float = 0.5
    critical_fraction: float = 0.2
    leaf_limit: int = 1_000_000
    capped_layer: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.critical_fraction <= self.budget_fraction <= 1.0:
            raise ValueError(
                "need 0 <= critical_fraction <= budget_fraction <= 1, got "
                f"critical_fraction={self.critical_fraction}, "
                f"budget_fraction={self.budget_fraction}"
            )
        if self.leaf_limit < 1:
            raise ValueError("leaf_limit must be positive")
        if self.capped_layer < 1:
            raise ValueError("capped_layer must be at least 1")

    # -- decisions ---------------------------------------------------------

    def decide_serial(
        self, n_leaves: int, budget: Optional["Budget"]
    ) -> DegradationDecision:
        """Rung for one serial search: ``full`` or ``layer_capped``."""
        if n_leaves > self.leaf_limit:
            return DegradationDecision(
                "layer_capped", max_layer=self.capped_layer, reason="leaf_count"
            )
        if budget is not None and budget.fraction_remaining() < self.critical_fraction:
            return DegradationDecision(
                "layer_capped", max_layer=self.capped_layer, reason="budget"
            )
        return DegradationDecision("full")

    def decide_delta(
        self, n_leaves: int, budget: Optional["Budget"]
    ) -> DegradationDecision:
        """Rung for one streaming tick: ``delta``, cold-``full`` or capped.

        The delta patch path is the top rung — it is the cheapest way to
        serve a tick, but it also *invests* time in patch bookkeeping
        that only pays off over later ticks.  Under a draining budget
        that investment is wrong, so the ladder steps to a cold ``full``
        tick (spend everything on this search) and, critically low, to
        ``layer_capped`` exactly like the serial path.
        """
        if n_leaves > self.leaf_limit:
            return DegradationDecision(
                "layer_capped", max_layer=self.capped_layer, reason="leaf_count"
            )
        if budget is not None:
            fraction = budget.fraction_remaining()
            if fraction < self.critical_fraction:
                return DegradationDecision(
                    "layer_capped", max_layer=self.capped_layer, reason="budget"
                )
            if fraction < self.budget_fraction:
                return DegradationDecision("full", reason="budget")
        return DegradationDecision("delta")
