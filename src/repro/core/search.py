"""AC-guided layer-by-layer top-down search (§IV-D, Algorithm 2).

The search walks the cuboid lattice restricted to the attributes that
survived Algorithm 1, breadth-first from layer 1 downwards.  For every
occupied combination of every cuboid it evaluates the Anomaly Confidence in
bulk; combinations exceeding ``t_conf`` become RAP candidates unless they
descend from an existing candidate (Criteria 3 — a RAP's descendants cannot
be RAPs, so whole branches are pruned).  As soon as the candidate set
covers every anomalous leaf of ``D`` the search stops early.

Because BFS visits all ancestors of a combination before the combination
itself, the candidate-descendant check exactly enforces Definition 1: a
candidate's parents were all evaluated earlier and found non-anomalous
(otherwise the parent — or one of *its* ancestors — would already be a
candidate and the combination would have been pruned).

Aggregation goes through the dataset's shared :class:`AggregationEngine`
(:func:`repro.core.engine.engine_for`): per-cuboid linear keys are cached,
support and anomalous support come from one fused bincount pass per
layer (or per prefetched lattice), and candidate coverage uses the
engine's inverted index instead of full-table masks.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..data.dataset import FineGrainedDataset
from ..obs import trace as _trace
from ..resilience.budget import Budget
from .cuboid import Cuboid
from .engine import AggregationEngine, CandidateIndex, engine_for
from .scoring import RAPCandidate

__all__ = [
    "SearchStats",
    "SearchOutcome",
    "layerwise_topdown_search",
    "batched_layerwise_topdown_search",
]


@functools.lru_cache(maxsize=4096)
def _layer_cuboids(indices: Tuple[int, ...], layer: int) -> Tuple[Cuboid, ...]:
    """The layer's cuboids in lexicographic order (cuboids are immutable,
    so the lists are shared across searches and threshold sweeps)."""
    return tuple(Cuboid(subset) for subset in itertools.combinations(indices, layer))


@dataclass
class SearchStats:
    """Instrumentation of one search run (used by the efficiency benches)."""

    n_cuboids_visited: int = 0
    n_combinations_evaluated: int = 0
    n_candidates: int = 0
    #: Confident combinations skipped because an ancestor was already a
    #: candidate (Criteria 3) — how much work the pruning rule saved.
    n_criteria3_pruned: int = 0
    deepest_layer_visited: int = 0
    early_stopped: bool = False
    #: Why the search ended (``coverage_early_stop``, ``lattice_exhausted``,
    #: ``max_layer_reached``, ``no_anomalous_leaves`` or ``deadline``) — the
    #: same string the run span records, kept on the stats so serial and
    #: batched runs can be compared without a trace collector.
    stop_reason: Optional[str] = None
    #: Degradation-ladder rung that produced this result (``None`` when no
    #: :class:`~repro.resilience.degrade.DegradationPolicy` was active) —
    #: plumbed into :class:`~repro.service.pipeline.IncidentReport` and the
    #: ``resilience_degrade_total`` counter family.
    degradation_tier: Optional[str] = None


@dataclass
class SearchOutcome:
    """Candidates found by Algorithm 2 plus run instrumentation."""

    candidates: List[RAPCandidate]
    stats: SearchStats = field(default_factory=SearchStats)


def layerwise_topdown_search(
    dataset: FineGrainedDataset,
    attribute_indices: Sequence[int],
    t_conf: float = 0.8,
    early_stop: bool = True,
    max_layer: Optional[int] = None,
    engine: Optional[AggregationEngine] = None,
    budget: Optional[Budget] = None,
) -> SearchOutcome:
    """Algorithm 2 over the cuboids spanned by *attribute_indices*.

    Parameters
    ----------
    attribute_indices:
        The surviving ``AttributeSet'`` of Algorithm 1 (schema indices).
        Order does not affect the result set — cuboids within a layer are
        visited in a deterministic lexicographic order.
    t_conf:
        Criteria 2 threshold in ``(0, 1)``.
    early_stop:
        Stop once candidates cover every anomalous leaf (the paper's early
        stop strategy).  Disable for the ablation benchmark.
    max_layer:
        Optional cap on the BFS depth (all layers when ``None``).
    engine:
        Aggregation engine to use; defaults to the dataset's shared engine
        (:func:`repro.core.engine.engine_for`), so repeated searches and
        other consumers of the same interval reuse one cache.
    budget:
        Optional cooperative deadline (:class:`~repro.resilience.Budget`),
        checked before each BFS layer.  An exhausted budget ends the
        search with ``stop_reason="deadline"`` and the candidates found
        so far — exactly the result of a ``max_layer`` cap at the last
        completed layer, so partial results stay deterministic.

    Returns
    -------
    :class:`SearchOutcome` with candidates in discovery (BFS) order; ranking
    is a separate step (:func:`repro.core.scoring.rank_candidates`).
    """
    if not 0.0 < t_conf < 1.0:
        raise ValueError("t_conf must lie in (0, 1)")
    indices = sorted(set(int(i) for i in attribute_indices))
    if not indices:
        raise ValueError("search needs at least one attribute")

    stats = SearchStats()
    candidates: List[RAPCandidate] = []
    anomalous_leaves = dataset.labels
    n_anomalous = int(anomalous_leaves.sum())

    # The span machinery must cost ~nothing when tracing is off: the flag is
    # hoisted once and the disabled path reuses a shared no-op context, so
    # no span objects or attribute dicts are ever built.
    traced = _trace.ACTIVE
    run_cm = (
        obs.span(
            "search.run",
            n_attributes=len(indices),
            t_conf=t_conf,
            n_anomalous_leaves=n_anomalous,
        )
        if traced
        else _trace.NULL_SPAN_CONTEXT
    )
    with run_cm as run_span:
        run_span.open_tally()
        if n_anomalous == 0:
            stats.stop_reason = "no_anomalous_leaves"
            run_span.set(stop_reason="no_anomalous_leaves", n_candidates=0)
            return SearchOutcome(candidates=[], stats=stats)

        if engine is None:
            engine = engine_for(dataset)
        engine.prepare(indices)
        candidate_index = CandidateIndex()
        covered = np.zeros(dataset.n_rows, dtype=bool)
        n_covered_anomalous = 0

        depth = len(indices) if max_layer is None else min(max_layer, len(indices))
        index_tuple = tuple(indices)

        def finish(stop_reason: str) -> SearchOutcome:
            stats.n_candidates = len(candidates)
            stats.stop_reason = stop_reason
            if traced:
                run_span.set(
                    stop_reason=stop_reason,
                    n_candidates=stats.n_candidates,
                    n_cuboids=stats.n_cuboids_visited,
                    n_combinations=stats.n_combinations_evaluated,
                    n_criteria3_pruned=stats.n_criteria3_pruned,
                    deepest_layer=stats.deepest_layer_visited,
                    coverage_fraction=n_covered_anomalous / n_anomalous,
                )
                obs.inc("search_cuboids_total", stats.n_cuboids_visited)
                obs.inc("search_combinations_total", stats.n_combinations_evaluated)
                obs.inc("search_candidates_total", stats.n_candidates)
                obs.inc("search_criteria3_pruned_total", stats.n_criteria3_pruned)
                if stats.early_stopped:
                    obs.inc("search_early_stops_total")
                if stop_reason == "deadline":
                    obs.inc("resilience_deadline_exceeded_total", path="serial")
            return SearchOutcome(candidates=candidates, stats=stats)

        for layer in range(1, depth + 1):
            # The budget is cooperative: checked only at layer boundaries,
            # so an expired deadline yields whole completed layers — the
            # same candidate prefix an explicit max_layer cap returns.
            if budget is not None and budget.expired():
                return finish("deadline")
            stats.deepest_layer_visited = layer
            cuboids = _layer_cuboids(index_tuple, layer)
            if traced:
                # Per-layer deltas are recovered from stats snapshots in the
                # ``finally`` below, so the scan loop itself carries no
                # tracing bookkeeping.
                layer_cm = obs.span("search.layer", layer=layer)
                snap = (
                    stats.n_cuboids_visited,
                    stats.n_combinations_evaluated,
                    len(candidates),
                    stats.n_criteria3_pruned,
                )
            else:
                layer_cm = _trace.NULL_SPAN_CONTEXT
            with layer_cm as layer_span:
                try:
                    for cuboid, (aggregate, anomalous_rows) in zip(
                        cuboids, engine.layer_scan(cuboids, t_conf)
                    ):
                        stats.n_cuboids_visited += 1
                        stats.n_combinations_evaluated += len(aggregate)
                        if not anomalous_rows:
                            continue
                        confidences = aggregate.confidence
                        spec = cuboid.attribute_indices
                        spec_set = frozenset(spec)
                        positions = {attr: pos for pos, attr in enumerate(spec)}
                        group_codes = aggregate.codes
                        for row in anomalous_rows:
                            codes_row = group_codes[row]
                            # Criteria 3 pruning works on raw codes; combinations are
                            # only decoded for the (few) surviving candidates.
                            if candidate_index.has_ancestor_entry(
                                spec_set, lambda i: int(codes_row[positions[i]])
                            ):
                                stats.n_criteria3_pruned += 1
                                continue
                            combination = aggregate.combination(row)
                            candidate = RAPCandidate(
                                combination=combination,
                                confidence=float(confidences[row]),
                                layer=layer,
                                support=int(aggregate.support[row]),
                                anomalous_support=int(aggregate.anomalous_support[row]),
                            )
                            candidates.append(candidate)
                            candidate_index.add_entry(
                                spec, tuple(int(c) for c in codes_row)
                            )
                            rows = engine.group_rows(aggregate, row)
                            fresh = rows[~covered[rows]]
                            if fresh.size:
                                covered[fresh] = True
                                n_covered_anomalous += int(anomalous_leaves[fresh].sum())
                            if early_stop and n_covered_anomalous >= n_anomalous:
                                stats.early_stopped = True
                                return finish("coverage_early_stop")
                finally:
                    if traced:
                        layer_span.set(
                            n_cuboids=stats.n_cuboids_visited - snap[0],
                            n_combinations=stats.n_combinations_evaluated - snap[1],
                            n_candidates=len(candidates) - snap[2],
                            n_criteria3_pruned=stats.n_criteria3_pruned - snap[3],
                            coverage_fraction=n_covered_anomalous / n_anomalous,
                            early_stopped=stats.early_stopped,
                        )

        return finish(
            "max_layer_reached" if depth < len(indices) else "lattice_exhausted"
        )


# -- case-stacked batched search ----------------------------------------------


@dataclass
class _CaseSearchState:
    """Per-case mutable state of one batched search (mirrors the serial loop)."""

    slot: int
    #: The case's own attribute set (sorted) and BFS depth.
    indices: Tuple[int, ...]
    depth: int
    n_anomalous: int
    labels: np.ndarray
    covered: np.ndarray
    stats: SearchStats = field(default_factory=SearchStats)
    candidates: List[RAPCandidate] = field(default_factory=list)
    index: CandidateIndex = field(default_factory=CandidateIndex)
    n_covered_anomalous: int = 0
    outcome: Optional[SearchOutcome] = None

    @property
    def tail_reason(self) -> str:
        """The serial stop reason of a search that ran all its layers."""
        if self.depth < len(self.indices):
            return "max_layer_reached"
        return "lattice_exhausted"

    def finish(self, stop_reason: str, traced: bool) -> None:
        self.stats.n_candidates = len(self.candidates)
        self.stats.stop_reason = stop_reason
        if traced:
            obs.inc("search_cuboids_total", self.stats.n_cuboids_visited)
            obs.inc("search_combinations_total", self.stats.n_combinations_evaluated)
            obs.inc("search_candidates_total", self.stats.n_candidates)
            obs.inc("search_criteria3_pruned_total", self.stats.n_criteria3_pruned)
            if self.stats.early_stopped:
                obs.inc("search_early_stops_total")
        self.outcome = SearchOutcome(candidates=self.candidates, stats=self.stats)


def batched_layerwise_topdown_search(
    stacked,
    slots: Sequence[int],
    attribute_sets: Sequence[Sequence[int]],
    t_conf: float = 0.8,
    early_stop: bool = True,
    max_layer: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> List[SearchOutcome]:
    """Algorithm 2 for a batch of cases sharing a leaf layout, layers fused.

    Runs the exact serial search semantics for every case slot of a
    :class:`~repro.core.stacked.StackedCaseEngine` at once, each over its
    own attribute set K (Algorithm 1's kept set).  A case's lattice over
    K is the union lattice restricted to subsets of K, cuboid order
    included, so one search walks the union lattice for the whole batch:

    * layer ``l`` counts, in one case-stacked bincount pass, the union
      cuboids that some still-active case needs (layer 1 is read from
      stacked CP's pass when it ran);
    * the layer's Criteria-2 threshold is a single 2-D comparison over
      the ``(active cases, layer groups)`` confidence matrix;
    * each case then scans only its own cuboids, ``_layer_cuboids(K, l)``
      in the serial order, and only their (few) confident combinations
      reach the per-case Python loop — candidate construction,
      Criteria-3 pruning, coverage and the early stop.  Its stats count
      only those cuboids.

    A case ends at its own depth, ``min(max_layer, |K|)``, with its own
    stop reason, and an early-stopped case drops out of later passes.

    Parameters
    ----------
    stacked:
        The batch's :class:`~repro.core.stacked.StackedCaseEngine`.
    slots:
        Case slots of *stacked* to search.
    attribute_sets:
        One attribute set per slot, in *slots* order (schema indices).
    t_conf, early_stop, max_layer, budget:
        As in :func:`layerwise_topdown_search`.  The budget is shared by
        the whole batch and checked once per fused layer: expiry finishes
        every still-active case with ``stop_reason="deadline"`` while
        already-stopped cases keep their own reasons.

    Returns
    -------
    One :class:`SearchOutcome` per requested slot, in *slots* order, with
    candidates, stats and stop reasons identical to per-case
    :func:`layerwise_topdown_search` runs.
    """
    if not 0.0 < t_conf < 1.0:
        raise ValueError("t_conf must lie in (0, 1)")
    if len(attribute_sets) != len(slots):
        raise ValueError("need one attribute set per slot")

    traced = _trace.ACTIVE
    states: List[_CaseSearchState] = []
    for slot, attribute_indices in zip(slots, attribute_sets):
        indices = tuple(sorted(set(int(i) for i in attribute_indices)))
        if not indices:
            raise ValueError("search needs at least one attribute")
        state = _CaseSearchState(
            slot=slot,
            indices=indices,
            depth=len(indices) if max_layer is None else min(max_layer, len(indices)),
            n_anomalous=stacked.n_anomalous(slot),
            labels=stacked.labels(slot),
            covered=np.zeros(stacked.n_rows, dtype=bool),
        )
        if state.n_anomalous == 0:
            state.finish("no_anomalous_leaves", traced=False)
        states.append(state)

    active = [state for state in states if state.outcome is None]
    union = tuple(sorted(set().union(*(state.indices for state in active))))
    engine = stacked.engine
    layer = 0
    while True:
        layer += 1
        # A case whose own lattice ended finishes now, before the budget
        # check of a layer it does not have (as its serial run would).
        for state in active:
            if state.depth < layer:
                state.finish(state.tail_reason, traced)
        active = [state for state in active if state.outcome is None]
        if not active:
            break
        # Same cooperative layer-boundary contract as the serial path: an
        # expired budget leaves every active case with complete layers only.
        if budget is not None and budget.expired():
            for state in active:
                state.finish("deadline", traced)
            if traced:
                obs.inc(
                    "resilience_deadline_exceeded_total", len(active), path="stacked"
                )
            break
        own = [_layer_cuboids(state.indices, layer) for state in active]
        needed = set().union(*own)
        cuboids = [c for c in _layer_cuboids(union, layer) if c in needed]
        position = {cuboid: j for j, cuboid in enumerate(cuboids)}
        layer_cm = (
            obs.span(
                "search.stacked_layer",
                layer=layer,
                n_active=len(active),
                n_cuboids=len(cuboids),
            )
            if traced
            else _trace.NULL_SPAN_CONTEXT
        )
        with layer_cm as layer_span:
            counts = stacked.layer_counts(cuboids, [state.slot for state in active])
            # The whole layer's Criteria-2 probe is one 2-D comparison:
            # anomalous counts are stacked per case, support is shared.
            confidences = counts.anomalous / np.maximum(counts.support, 1)
            hit_rows, hit_cols = np.nonzero(confidences > t_conf)
            # np.nonzero is row-major: each case's hit columns are an
            # ascending contiguous run, exactly the serial scan order.
            splits = np.searchsorted(hit_rows, np.arange(len(active) + 1)).tolist()
            if traced:
                obs.inc("stacked_layers_fused_total")
            n_layer_candidates = 0
            n_stopped = 0
            for row, (state, cases_cuboids) in enumerate(zip(active, own)):
                state.stats.deepest_layer_visited = layer
                before = len(state.candidates)
                stopped = _scan_case_layer(
                    state,
                    layer,
                    counts,
                    [position[cuboid] for cuboid in cases_cuboids],
                    hit_cols[splits[row] : splits[row + 1]].tolist(),
                    confidences[row],
                    counts.anomalous[row],
                    early_stop,
                    engine,
                    stacked.schema,
                )
                n_layer_candidates += len(state.candidates) - before
                if stopped:
                    state.finish("coverage_early_stop", traced)
                    n_stopped += 1
            if traced:
                layer_span.set(
                    n_candidates=n_layer_candidates, n_early_stopped=n_stopped
                )
        active = [state for state in active if state.outcome is None]
    return [state.outcome for state in states]


def _scan_case_layer(
    state: "_CaseSearchState",
    layer: int,
    counts,
    blocks: List[int],
    cols: List[int],
    conf_row: np.ndarray,
    anomalous_row: np.ndarray,
    early_stop: bool,
    engine: AggregationEngine,
    schema,
) -> bool:
    """One case's pass over its own cuboids of one fused layer.

    Replays the serial per-layer loop of :func:`layerwise_topdown_search`
    verbatim — same cuboid order, ascending group rows, identical stats
    bookkeeping — against the shared stacked structures.  *blocks* are
    the case's cuboid positions in *counts* and *cols* its confident
    columns (ascending); hits in other cases' cuboids are skipped.  A
    confident group's codes are decoded from its occupied key alone.
    Returns True on early stop.
    """
    stats = state.stats
    bounds = counts.bounds
    for block in blocks:
        shape = counts.shapes[block]
        low, high = bounds[block], bounds[block + 1]
        stats.n_cuboids_visited += 1
        stats.n_combinations_evaluated += high - low
        first = bisect.bisect_left(cols, low)
        last = bisect.bisect_left(cols, high, first)
        if first == last:
            continue
        spec = counts.cuboids[block].attribute_indices
        spec_set = frozenset(spec)
        positions = {attr: pos for pos, attr in enumerate(spec)}
        for col in cols[first:last]:
            row = col - low
            key = int(shape.occupied[row])
            codes_row = engine.key_codes(spec, key)
            if state.index.has_ancestor_entry(
                spec_set, lambda i: codes_row[positions[i]]
            ):
                stats.n_criteria3_pruned += 1
                continue
            candidate = RAPCandidate(
                combination=schema.combination(spec, codes_row),
                confidence=float(conf_row[col]),
                layer=layer,
                support=int(shape.support[row]),
                anomalous_support=int(anomalous_row[col]),
            )
            state.candidates.append(candidate)
            state.index.add_entry(spec, codes_row)
            covered_rows = engine.key_rows(spec, codes_row, key)
            fresh = covered_rows[~state.covered[covered_rows]]
            if fresh.size:
                state.covered[fresh] = True
                state.n_covered_anomalous += int(state.labels[fresh].sum())
            if early_stop and state.n_covered_anomalous >= state.n_anomalous:
                stats.early_stopped = True
                return True
    return False
