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
    n_anomalous: int
    labels: np.ndarray
    covered: np.ndarray
    stats: SearchStats = field(default_factory=SearchStats)
    candidates: List[RAPCandidate] = field(default_factory=list)
    index: CandidateIndex = field(default_factory=CandidateIndex)
    n_covered_anomalous: int = 0
    outcome: Optional[SearchOutcome] = None

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
    attribute_indices: Sequence[int],
    t_conf: float = 0.8,
    early_stop: bool = True,
    max_layer: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> List[SearchOutcome]:
    """Algorithm 2 for a batch of cases sharing a leaf layout, layers fused.

    Runs the exact serial search semantics for every case slot of a
    :class:`~repro.core.stacked.StackedCaseEngine` at once: each BFS
    layer's anomalous supports for all still-active cases come from one
    case-stacked bincount pass, the layer's Criteria-2 threshold is a
    single 2-D comparison over the ``(active cases, layer groups)``
    confidence matrix, and only the (few) confident combinations reach
    the per-case Python loop — candidate construction, Criteria-3
    pruning, coverage and the early stop, replayed in the serial visit
    order.  Cases diverge naturally through the active mask: an
    early-stopped case simply drops out of later fused passes.

    Parameters
    ----------
    stacked:
        The batch's :class:`~repro.core.stacked.StackedCaseEngine`.
    slots:
        Case slots of *stacked* to search (all sharing *attribute_indices*,
        e.g. one Algorithm 1 subgroup).
    attribute_indices, t_conf, early_stop, max_layer, budget:
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
    indices = sorted(set(int(i) for i in attribute_indices))
    if not indices:
        raise ValueError("search needs at least one attribute")

    traced = _trace.ACTIVE
    states: List[_CaseSearchState] = []
    for slot in slots:
        state = _CaseSearchState(
            slot=slot,
            n_anomalous=stacked.n_anomalous(slot),
            labels=stacked.labels(slot),
            covered=np.zeros(stacked.n_rows, dtype=bool),
        )
        if state.n_anomalous == 0:
            state.finish("no_anomalous_leaves", traced=False)
        states.append(state)

    active = [i for i, state in enumerate(states) if state.outcome is None]
    depth = len(indices) if max_layer is None else min(max_layer, len(indices))
    index_tuple = tuple(indices)

    deadline_hit = False
    for layer in range(1, depth + 1):
        if not active:
            break
        # Same cooperative layer-boundary contract as the serial path: an
        # expired budget leaves every active case with complete layers only.
        if budget is not None and budget.expired():
            deadline_hit = True
            break
        cuboids = _layer_cuboids(index_tuple, layer)
        active_slots = [states[i].slot for i in active]
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
            layer_data = stacked.layer_counts(cuboids, active_slots)
            # The whole layer's Criteria-2 probe is one 2-D comparison:
            # anomalous counts are stacked per case, support is shared.
            blocks = [
                entry.anomalous / np.maximum(entry.support, 1)[None, :]
                for entry in layer_data
            ]
            confidences = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
            hit_rows, hit_cols = np.nonzero(confidences > t_conf)
            boundaries = [0]
            for entry in layer_data:
                boundaries.append(boundaries[-1] + entry.n_groups)
            # np.nonzero is row-major: each case's hit columns are an
            # ascending contiguous run, exactly the serial scan order.
            splits = np.searchsorted(hit_rows, np.arange(len(active) + 1))
            if traced:
                obs.inc("stacked_layers_fused_total")
            still_active = []
            n_layer_candidates = 0
            for position, state_index in enumerate(active):
                state = states[state_index]
                state.stats.deepest_layer_visited = layer
                cols = hit_cols[splits[position] : splits[position + 1]]
                before = len(state.candidates)
                stopped = _scan_case_layer(
                    state,
                    layer,
                    layer_data,
                    boundaries,
                    cols,
                    confidences[position],
                    position,
                    early_stop,
                    stacked,
                )
                n_layer_candidates += len(state.candidates) - before
                if stopped:
                    state.finish("coverage_early_stop", traced)
                else:
                    still_active.append(state_index)
            if traced:
                layer_span.set(
                    n_candidates=n_layer_candidates,
                    n_early_stopped=len(active) - len(still_active),
                )
            active = still_active

    if deadline_hit:
        tail_reason = "deadline"
        if traced:
            obs.inc(
                "resilience_deadline_exceeded_total", len(active), path="stacked"
            )
    else:
        tail_reason = (
            "max_layer_reached" if depth < len(indices) else "lattice_exhausted"
        )
    for state in states:
        if state.outcome is None:
            state.finish(tail_reason, traced)
    return [state.outcome for state in states]


def _scan_case_layer(
    state: "_CaseSearchState",
    layer: int,
    layer_data,
    boundaries: List[int],
    cols: np.ndarray,
    conf_row: np.ndarray,
    position: int,
    early_stop: bool,
    stacked,
) -> bool:
    """One case's pass over one fused layer; returns True on early stop.

    Replays the serial per-layer loop of :func:`layerwise_topdown_search`
    verbatim — same cuboid order, ascending group rows, identical stats
    bookkeeping — against the shared stacked structures.
    """
    stats = state.stats
    pointer = 0
    n_hits = len(cols)
    for block_index, entry in enumerate(layer_data):
        stats.n_cuboids_visited += 1
        stats.n_combinations_evaluated += entry.n_groups
        low, high = boundaries[block_index], boundaries[block_index + 1]
        rows: List[int] = []
        while pointer < n_hits and cols[pointer] < high:
            rows.append(int(cols[pointer]) - low)
            pointer += 1
        if not rows:
            continue
        cuboid = entry.cuboid
        spec = cuboid.attribute_indices
        spec_set = frozenset(spec)
        positions = {attr: pos for pos, attr in enumerate(spec)}
        group_codes = entry.codes
        for row in rows:
            codes_row = group_codes[row]
            if state.index.has_ancestor_entry(
                spec_set, lambda i: int(codes_row[positions[i]])
            ):
                stats.n_criteria3_pruned += 1
                continue
            combination = stacked.decode_combination(cuboid, codes_row)
            candidate = RAPCandidate(
                combination=combination,
                confidence=float(conf_row[low + row]),
                layer=layer,
                support=int(entry.support[row]),
                anomalous_support=int(entry.anomalous[position, row]),
            )
            state.candidates.append(candidate)
            state.index.add_entry(spec, tuple(int(c) for c in codes_row))
            covered_rows = stacked.group_rows(cuboid, row)
            fresh = covered_rows[~state.covered[covered_rows]]
            if fresh.size:
                state.covered[fresh] = True
                state.n_covered_anomalous += int(state.labels[fresh].sum())
            if early_stop and state.n_covered_anomalous >= state.n_anomalous:
                stats.early_stopped = True
                return True
    return False
