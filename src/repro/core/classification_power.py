"""Classification Power and redundant-attribute deletion (§IV-C, Algorithm 1).

The Classification Power (CP) of an attribute measures how much splitting
the leaf table on that attribute reduces the label entropy (Eq. 1)::

    CP_attr = (Info(D) - Info_attr(D)) / Info(D)

``Info(D)`` is the Shannon entropy of the anomalous/normal label
distribution; ``Info_attr(D)`` is the support-weighted entropy after
partitioning by the attribute's elements (Fig. 6).  This is the relative
information gain of ID3 decision trees applied to the anomaly labels.

Criteria 1 says an attribute belonging to any RAP must have ``CP > t_CP``;
attributes at or below the threshold are redundant and deleted, shrinking
the cuboid lattice by at least ``1 - 2**-k`` (Proof 1 / Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .. import obs
from ..data.dataset import FineGrainedDataset
from ..obs import trace as _trace
from .cuboid import Cuboid
from .engine import engine_for

__all__ = [
    "binary_entropy",
    "classification_power",
    "cp_terms",
    "cp_from_info",
    "all_classification_powers",
    "partition_attributes",
    "delete_redundant_attributes",
    "AttributeDeletionResult",
]


def binary_entropy(p_anomalous: float) -> float:
    """Shannon entropy (nats) of a two-class distribution; ``0 log 0 := 0``."""
    if not 0.0 <= p_anomalous <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    entropy = 0.0
    for p in (p_anomalous, 1.0 - p_anomalous):
        if p > 0.0:
            entropy -= p * np.log(p)
    return float(entropy)


def cp_terms(support, anomalous, n_rows) -> np.ndarray:
    """Eq. 1's elementwise part: each element's weighted branch entropy.

    ``support`` and ``anomalous`` are dense per-element counts (zeros at
    unoccupied codes) that broadcast against each other; the result has
    their broadcast shape.  ``Info_attr(D)`` of an attribute is the
    ``np.sum`` of its elements' terms, and :func:`cp_from_info` finishes
    Eq. 1.

    Callers lay several attributes (and, in the case-stacked path,
    several cases) side by side and sum each attribute's own contiguous
    slice.  Every step here is elementwise, so that layout yields bitwise
    the values of one attribute and one case alone — provided each slice
    keeps its attribute's own length: ``np.sum``'s pairwise blocking
    depends on it, so never pad attributes to a common width.
    """
    support, anomalous = np.broadcast_arrays(
        np.asarray(support, dtype=float), np.asarray(anomalous, dtype=float)
    )
    occupied = support > 0
    p_a = np.zeros(support.shape)
    np.divide(anomalous, support, out=p_a, where=occupied)
    branch_entropy = np.zeros(support.shape)
    for p in (p_a, 1.0 - p_a):
        positive = occupied & (p > 0.0)
        contribution = np.zeros(support.shape)
        contribution[positive] = p[positive] * np.log(p[positive])
        branch_entropy -= contribution
    return support / n_rows * branch_entropy


def cp_from_info(info_d, info_attr) -> np.ndarray:
    """``CP = (Info(D) - Info_attr(D)) / Info(D)``, and 0 where ``Info(D) = 0``."""
    info_d = np.asarray(info_d, dtype=float)
    safe = np.where(info_d > 0.0, info_d, 1.0)
    return np.where(info_d > 0.0, (info_d - info_attr) / safe, 0.0)


def all_classification_powers(dataset: FineGrainedDataset) -> Dict[str, float]:
    """``CP_attr`` (Eq. 1) of every schema attribute, keyed by attribute name.

    Degenerate case: when the leaf labels are all-normal or all-anomalous,
    ``Info(D) = 0`` and no attribute can classify anything — CP is defined
    as ``0`` for every attribute (nothing to localize / nothing to prune by).

    The per-element counts are the support and anomalous support of the
    single-attribute cuboid aggregates of the dataset's shared engine
    (:func:`~repro.core.engine.engine_for`) — the aggregates BFS layer 1
    reads too, so one aggregation pass serves both stages.  Each
    attribute's counts go into its own full-size slot of one array,
    :func:`cp_terms` runs once over it, and one ``np.sum`` per slot gives
    that attribute's ``Info_attr(D)``.
    """
    names = dataset.schema.names
    n = dataset.n_rows
    info_d = binary_entropy(dataset.n_anomalous / n) if n else 0.0
    if info_d == 0.0:
        return {name: 0.0 for name in names}
    bounds = np.cumsum([0, *dataset.schema.sizes])
    support = np.zeros(bounds[-1])
    anomalous = np.zeros(bounds[-1])
    cuboids = [Cuboid((i,)) for i in range(len(names))]
    aggregates = engine_for(dataset).layer_aggregates(cuboids)
    for start, aggregate in zip(bounds, aggregates):
        slots = start + aggregate.codes[:, 0]
        support[slots] = aggregate.support
        anomalous[slots] = aggregate.anomalous_support
    terms = cp_terms(support, anomalous, n)
    info_attr = np.array(
        [np.sum(terms[bounds[i] : bounds[i + 1]]) for i in range(len(names))]
    )
    powers = cp_from_info(info_d, info_attr)
    return {name: float(power) for name, power in zip(names, powers)}


def classification_power(dataset: FineGrainedDataset, attribute) -> float:
    """``CP_attr`` (Eq. 1) of one attribute (see :func:`all_classification_powers`)."""
    index = dataset.schema.index_of(attribute)
    return all_classification_powers(dataset)[dataset.schema.names[index]]


@dataclass
class AttributeDeletionResult:
    """Output of Algorithm 1.

    ``kept_indices`` is the surviving ``AttributeSet'`` sorted by CP
    descending (the algorithm's final sort); ``cp_values`` records the CP of
    *every* attribute for diagnostics and the sensitivity study.
    """

    kept_indices: Tuple[int, ...]
    deleted_indices: Tuple[int, ...]
    cp_values: Dict[str, float]

    def kept_names(self, dataset: FineGrainedDataset) -> Tuple[str, ...]:
        return tuple(dataset.schema.names[i] for i in self.kept_indices)

    def deleted_names(self, dataset: FineGrainedDataset) -> Tuple[str, ...]:
        return tuple(dataset.schema.names[i] for i in self.deleted_indices)


def partition_attributes(
    cp_values: Dict[str, float], names: Tuple[str, ...], t_cp: float
) -> Tuple[Tuple[int, ...], Tuple[int, ...], bool]:
    """Algorithm 1's keep/delete decision from precomputed CP values.

    Returns ``(kept, deleted, forced_keep_all)`` with ``kept`` sorted by CP
    descending.  Shared by :func:`delete_redundant_attributes` and the
    case-stacked batch path (:mod:`repro.core.stacked`), so both make the
    identical decision for identical CP values.
    """
    if t_cp < 0.0:
        raise ValueError("t_cp must be non-negative")
    kept: List[int] = []
    deleted: List[int] = []
    for i, name in enumerate(names):
        if cp_values[name] > t_cp:
            kept.append(i)
        else:
            deleted.append(i)
    forced_keep_all = not kept
    if forced_keep_all:
        kept = list(range(len(names)))
        deleted = []
    kept.sort(key=lambda i: cp_values[names[i]], reverse=True)
    return tuple(kept), tuple(deleted), forced_keep_all


def delete_redundant_attributes(
    dataset: FineGrainedDataset, t_cp: float = 0.005
) -> AttributeDeletionResult:
    """Algorithm 1: drop attributes with ``CP <= t_CP``, sort the rest by CP.

    Degenerate guard: if *every* attribute falls at or below the threshold
    (e.g. the labels are all-normal, making every CP zero) the deletion is
    skipped and all attributes are kept — deleting everything would leave no
    lattice to search, and the paper's criteria only ever talks about
    attributes *outside* ``AttributeSet(RAPs)``.
    """
    if t_cp < 0.0:
        raise ValueError("t_cp must be non-negative")
    with obs.span("cp.attribute_deletion", t_cp=t_cp) as deletion_span:
        schema = dataset.schema
        cp_values = all_classification_powers(dataset)
        kept, deleted, forced_keep_all = partition_attributes(
            cp_values, tuple(schema.names), t_cp
        )
        deletion_span.set(
            cp_values=cp_values,
            kept=[schema.names[i] for i in kept],
            deleted=[schema.names[i] for i in deleted],
            forced_keep_all=forced_keep_all,
        )
        if _trace.ACTIVE:
            obs.inc("cp_attributes_total", len(kept), decision="kept")
            obs.inc("cp_attributes_total", len(deleted), decision="deleted")
        return AttributeDeletionResult(
            kept_indices=tuple(kept),
            deleted_indices=tuple(deleted),
            cp_values=cp_values,
        )
