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
from . import kernels

__all__ = [
    "binary_entropy",
    "classification_power",
    "cp_powers_from_counts",
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


def cp_powers_from_counts(support, anomalous, n_rows, info_d):
    """Vectorized Eq. 1 from full-capacity count arrays.

    ``support`` and ``anomalous`` are dense per-element counts (zeros at
    unoccupied codes) whose **last** axis enumerates one attribute's
    elements; leading axes broadcast (the case-stacked path passes one
    row per case).  ``info_d`` broadcasts over the leading axes.

    Batch invariance: every step is elementwise except one ``np.sum``
    over the last axis, so evaluating a stack of cases returns bitwise
    the same values as evaluating each case alone — which is what keeps
    :meth:`repro.core.stacked.StackedCaseEngine.classification_powers`
    bit-identical to the serial :func:`classification_power`.
    """
    support = np.asarray(support, dtype=float)
    anomalous = np.asarray(anomalous, dtype=float)
    support, anomalous = np.broadcast_arrays(support, anomalous)
    info_d = np.asarray(info_d, dtype=float)
    occupied = support > 0
    p_a = np.zeros(support.shape)
    np.divide(anomalous, support, out=p_a, where=occupied)
    branch_entropy = np.zeros(support.shape)
    for p in (p_a, 1.0 - p_a):
        positive = occupied & (p > 0.0)
        contribution = np.zeros(support.shape)
        contribution[positive] = p[positive] * np.log(p[positive])
        branch_entropy -= contribution
    info_attr = np.sum(support / n_rows * branch_entropy, axis=-1)
    safe = np.where(info_d > 0.0, info_d, 1.0)
    return np.where(info_d > 0.0, (info_d - info_attr) / safe, 0.0)


def classification_power(dataset: FineGrainedDataset, attribute) -> float:
    """``CP_attr`` (Eq. 1) of one attribute over the labelled leaf table.

    Degenerate case: when the leaf labels are all-normal or all-anomalous,
    ``Info(D) = 0`` and no attribute can classify anything — CP is defined
    as ``0`` for every attribute (nothing to localize / nothing to prune by).

    The per-element counts are two :func:`~repro.core.kernels.count_bincount`
    passes; the entropy reduction is the shared :func:`cp_powers_from_counts`.
    """
    index = dataset.schema.index_of(attribute)
    n = dataset.n_rows
    if n == 0:
        return 0.0
    info_d = binary_entropy(dataset.n_anomalous / n)
    if info_d == 0.0:
        return 0.0

    column = np.ascontiguousarray(dataset.codes[:, index])
    size = dataset.schema.size(index)
    support = kernels.count_bincount(column, size)
    label_rows = np.flatnonzero(dataset.labels)
    anomalous = kernels.count_bincount(column[label_rows], size)
    return float(cp_powers_from_counts(support, anomalous, n, info_d))


def all_classification_powers(dataset: FineGrainedDataset) -> Dict[str, float]:
    """CP of every schema attribute, keyed by attribute name."""
    return {
        name: classification_power(dataset, i)
        for i, name in enumerate(dataset.schema.names)
    }


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
