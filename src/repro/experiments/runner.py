"""Uniform evaluation of localizers over case collections.

One runner drives every comparison in the paper: it executes a localizer
on each :class:`~repro.data.injection.LocalizationCase`, records the ranked
predictions and wall-clock time, and exposes the aggregations the figures
need (per-group mean F1, RC@k, mean running time).

Two evaluation protocols exist, matching §V-B:

* ``k_from_truth=True`` — the Squeeze-dataset protocol: the method returns
  exactly as many patterns as there are true RAPs, and F1 compares the two
  sets.
* ``k_from_truth=False`` with an explicit ``k`` — the RAPMD protocol: the
  method returns its top-``k`` and RC@k counts how many true RAPs appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.attribute import AttributeCombination
from ..data.injection import LocalizationCase
from ..metrics.localization import f1_score, recall_at_k
from ..metrics.timing import time_localization

__all__ = ["CaseResult", "MethodEvaluation", "run_cases"]


@dataclass
class CaseResult:
    """Outcome of one (method, case) execution."""

    case_id: str
    predicted: List[AttributeCombination]
    true_raps: Tuple[AttributeCombination, ...]
    seconds: float
    group: Optional[Hashable] = None
    #: Failure record from the fleet's crash protocol: a case whose
    #: second attempt also crashes comes back with empty predictions and
    #: the error message here instead of the whole run raising (see
    #: :mod:`repro.fleet.supervisor`).  ``None`` = clean run.
    error: Optional[str] = None

    @property
    def f1(self) -> float:
        return f1_score(self.predicted, self.true_raps)


@dataclass
class MethodEvaluation:
    """All case results of one method over one dataset."""

    method_name: str
    results: List[CaseResult] = field(default_factory=list)

    # -- aggregations ----------------------------------------------------------

    @property
    def mean_f1(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.f1 for r in self.results) / len(self.results)

    @property
    def mean_seconds(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.seconds for r in self.results) / len(self.results)

    def recall_at(self, k: int) -> float:
        return recall_at_k(((r.predicted, r.true_raps) for r in self.results), k)

    def failures(self) -> List[CaseResult]:
        """Results that carry a crash-protocol error record."""
        return [r for r in self.results if r.error is not None]

    def groups(self) -> List[Hashable]:
        """Distinct case groups, in first-seen order."""
        seen: Dict[Hashable, None] = {}
        for result in self.results:
            if result.group is not None and result.group not in seen:
                seen[result.group] = None
        return list(seen)

    def by_group(self) -> Dict[Hashable, "MethodEvaluation"]:
        """Split the results per case group (e.g. the (n_dim, n_raps) keys)."""
        split: Dict[Hashable, MethodEvaluation] = {}
        for result in self.results:
            bucket = split.setdefault(result.group, MethodEvaluation(self.method_name))
            bucket.results.append(result)
        return split

    def group_mean_f1(self) -> Dict[Hashable, float]:
        return {group: ev.mean_f1 for group, ev in self.by_group().items()}

    def group_mean_seconds(self) -> Dict[Hashable, float]:
        return {group: ev.mean_seconds for group, ev in self.by_group().items()}


def run_cases(
    method,
    cases: Sequence[LocalizationCase],
    k: Optional[int] = None,
    k_from_truth: bool = False,
) -> MethodEvaluation:
    """Evaluate *method* over *cases*.

    Parameters
    ----------
    method:
        Any object with ``name`` and ``localize(dataset, k)`` (the
        :class:`~repro.baselines.base.Localizer` interface).
    k:
        Fixed number of returned patterns (RAPMD protocol).  Ignored when
        ``k_from_truth`` is set.
    k_from_truth:
        Request exactly ``len(case.true_raps)`` patterns per case (the
        Squeeze-dataset F1 protocol).

    This serial loop is the reference every executor path
    (:mod:`repro.fleet`) is tested bit-identical against.
    """
    evaluation = MethodEvaluation(method_name=getattr(method, "name", type(method).__name__))
    for case in cases:
        case_k = len(case.true_raps) if k_from_truth else k
        predicted, seconds = time_localization(method.localize, case.dataset, case_k)
        evaluation.results.append(
            CaseResult(
                case_id=case.case_id,
                predicted=list(predicted),
                true_raps=tuple(case.true_raps),
                seconds=seconds,
                group=case.metadata.get("group"),
            )
        )
    return evaluation
