"""Case-stacked vectorized aggregation: every case of a batch in one pass.

The paper's operating regime (§V) re-localizes the *same* leaf population
over and over: one ISP-CDN deployment re-evaluates 10 560 leaf
combinations every 60 s, and the RAPMD evaluation protocol replays long
runs of cases that share one schema.  The per-case execution path pays
the full per-search overhead each time — a key pass, four ``bincount``
passes and a Python search loop per case — even though everything that
depends only on the leaf *codes* is identical across the batch.

:class:`StackedCaseEngine` exploits that sharing.  For a batch of cases
over one ``(schema, leaf-index)`` layout it stacks the per-case anomaly
labels and counts every cuboid's groups for **all cases at once**
(counts only: the two stages read no ``v``/``f`` sums):

* **Shared geometry** — linear keys, group occupancy, per-group support,
  group codes and covered rows depend only on the codes, so they come
  once per batch from a private :class:`~repro.core.engine.AggregationEngine`
  (:meth:`~repro.core.engine.AggregationEngine.shape`,
  :meth:`~repro.core.engine.AggregationEngine.linear_keys`,
  :meth:`~repro.core.engine.AggregationEngine.group_rows`) and are shared
  by every case.
* **Case-stacked bincount** — per-case anomalous supports of one BFS
  layer come from a single ``np.bincount`` over
  ``case_id * n_groups + linear_key``: each case's key range is disjoint
  after offsetting, so one pass replaces ``n_cases`` separate passes.
  Key construction is overflow-checked and promoted to the smallest safe
  integer dtype (:func:`~repro.core.kernels.stacked_key_dtype`:
  ``uint32`` → ``int64``).
* **Stacked Classification Power** — Algorithm 1's per-attribute counts
  are layer-1 cuboid aggregates (in the serial path too), so one stacked
  pass yields every case's CP inputs; the entropy math is the serial
  path's elementwise helper over the same layout, keeping the CP values
  and the kept/deleted decision bit-identical to
  :func:`~repro.core.classification_power.delete_redundant_attributes`.

The batched top-down search
(:func:`repro.core.search.batched_layerwise_topdown_search`) drives this
engine layer by layer with an active-case mask: cases diverge naturally
(different CP-deleted attributes, Criteria-3 pruning, coverage early
stop) while the layers they share stay fused.  Only integer counts feed
the search (confidence is an elementwise integer division), which is why
candidates are bitwise identical to the serial loop regardless of how
the serial engine resolved its aggregates (leaf-level, warm refresh and
delta-patched paths all agree on the integer lanes).

Memory footprint of one fused pass is bounded: the shared key matrix is
at most ``_MAX_STACKED_ELEMENTS`` int64 elements and each stacked
bincount allocates at most ``_MAX_STACKED_BINS`` bins; wider layers and
larger batches are chunked (chunking never changes results — integer
counts are order-free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .. import obs
from ..data.dataset import FineGrainedDataset
from ..obs import trace as _trace
from . import kernels
from .classification_power import (
    AttributeDeletionResult,
    binary_entropy,
    cp_from_info,
    cp_terms,
    partition_attributes,
)
from .cuboid import Cuboid
from .engine import AggregationEngine, _CuboidShape

__all__ = [
    "StackedCaseEngine",
    "StackedLayerCuboid",
    "group_datasets_by_layout",
]

#: Upper bound on the element count of one shared key matrix
#: (``n_cuboids x n_rows``); wider layers are chunked.  Matches the
#: aggregation engine's batch budget so the two layers chunk alike.
_MAX_STACKED_ELEMENTS = 1 << 21

#: Upper bound on the bin count of one stacked ``bincount`` output
#: (``n_cases x sum(capacities)``); larger batches are chunked over
#: cases.  2^22 int64 bins = 32 MiB per pass.
_MAX_STACKED_BINS = 1 << 22


def group_datasets_by_layout(
    datasets: Sequence[FineGrainedDataset],
) -> List[List[int]]:
    """Partition dataset indices into groups sharing a ``(schema, codes)`` layout.

    Groups preserve first-seen order and each group's member list is in
    input order, so batched results can be scattered back to input
    positions deterministically.  A dataset joins the first group whose
    schema (names *and* element vocabularies: group codes decode through
    it) and codes shape match and whose codes are the same object
    (consecutive snapshots of one KPI share buffers) or compare equal.
    An ``array_equal`` over a paper-scale table takes ~20 us, where
    hashing each case's codes took ~0.5 ms.
    """
    groups: List[List[int]] = []
    reps: List[FineGrainedDataset] = []
    by_key: Dict[tuple, List[int]] = {}
    for index, dataset in enumerate(datasets):
        codes = dataset.codes
        key = (dataset.schema, codes.shape)
        candidates = by_key.setdefault(key, [])
        for group_index in candidates:
            rep = reps[group_index].codes
            if codes is rep or np.array_equal(codes, rep):
                groups[group_index].append(index)
                break
        else:
            candidates.append(len(groups))
            groups.append([index])
            reps.append(dataset)
    return groups


@dataclass
class StackedLayerCuboid:
    """One cuboid's shared geometry plus the batch's stacked anomalous counts."""

    cuboid: Cuboid
    #: Element codes per occupied group, shape (G, d) — shared across cases.
    codes: np.ndarray
    #: Leaf support per occupied group — shared across cases.
    support: np.ndarray
    #: Anomalous support per (requested case, occupied group), shape (S, G).
    anomalous: np.ndarray

    @property
    def n_groups(self) -> int:
        return int(self.support.size)


class StackedCaseEngine:
    """Fused cuboid aggregation over cases sharing one leaf layout.

    Parameters
    ----------
    datasets:
        Non-empty sequence of leaf tables agreeing on schema and codes
        (labels, ``v`` and ``f`` may differ freely — nothing the stacked
        passes share depends on them).  Use
        :func:`group_datasets_by_layout` to split a mixed collection.
    """

    def __init__(self, datasets: Sequence[FineGrainedDataset]):
        if not datasets:
            raise ValueError("StackedCaseEngine needs at least one dataset")
        first = datasets[0]
        for dataset in datasets[1:]:
            if dataset.schema != first.schema:
                raise ValueError("stacked cases must share one schema")
            if dataset.codes is not first.codes and not (
                dataset.codes.shape == first.codes.shape
                and np.array_equal(dataset.codes, first.codes)
            ):
                raise ValueError("stacked cases must share one leaf population")
        self.datasets = list(datasets)
        self.schema = first.schema
        self.n_rows = first.n_rows
        self.n_cases = len(self.datasets)
        #: Private engine over the representative dataset — *not* installed
        #: in the shared per-dataset registry, so building a stacked batch
        #: never changes how a later serial run over the same dataset
        #: resolves its aggregates.
        self.engine = AggregationEngine(first)
        self._label_rows: List[np.ndarray] = [
            np.flatnonzero(dataset.labels) for dataset in self.datasets
        ]

    # -- per-case accessors ----------------------------------------------------

    def labels(self, slot: int) -> np.ndarray:
        return self.datasets[slot].labels

    def n_anomalous(self, slot: int) -> int:
        return int(self._label_rows[slot].size)

    # -- fused stacked passes --------------------------------------------------

    def _stacked_anomalous(
        self,
        cuboids: Sequence[Cuboid],
        shapes: Sequence[_CuboidShape],
        slots: Sequence[int],
    ) -> List[np.ndarray]:
        """Per-cuboid ``(len(slots), G)`` anomalous supports, one fused pass.

        Cuboid linear-key vectors are shifted into disjoint ranges and
        every case's anomalous-row keys are shifted by
        ``case_slot * total_capacity`` on top, so a single ``bincount``
        yields every (case, cuboid, group) count.  Counts are integers,
        so the concatenation order is irrelevant — chunking over cases
        cannot change the result.
        """
        n_slots = len(slots)
        key_columns = []
        capacities = []
        offsets = []
        total_capacity = 0
        for cuboid in cuboids:
            keys, capacity = self.engine.linear_keys(cuboid)
            key_columns.append(keys)
            capacities.append(capacity)
            offsets.append(total_capacity)
            total_capacity += capacity
        results = [
            np.zeros((n_slots, shape.occupied.size), dtype=np.int64)
            for shape in shapes
        ]
        if total_capacity == 0 or n_slots == 0:
            return results
        # Chunk cases so one pass allocates at most _MAX_STACKED_BINS bins.
        per_chunk = max(1, _MAX_STACKED_BINS // max(1, total_capacity))
        for chunk_start in range(0, n_slots, per_chunk):
            chunk = list(range(chunk_start, min(chunk_start + per_chunk, n_slots)))
            rows_per_case = [self._label_rows[slots[i]] for i in chunk]
            lengths = [rows.size for rows in rows_per_case]
            total_rows = sum(lengths)
            if total_rows == 0:
                continue
            rows_cat = np.concatenate(rows_per_case)
            counts = kernels.stacked_anomalous(
                key_columns, offsets, total_capacity, rows_cat, lengths
            )
            for j, shape in enumerate(shapes):
                block = counts[:, offsets[j] : offsets[j] + capacities[j]]
                results[j][chunk, :] = block[:, shape.occupied]
        return results

    def layer_counts(
        self, cuboids: Sequence[Cuboid], slots: Sequence[int]
    ) -> List[StackedLayerCuboid]:
        """One BFS layer's stacked counts for the requested case slots.

        Support, occupancy and group codes are shared (cached across
        layers and searches of this batch); anomalous supports for all
        *slots* come from fused case-stacked bincounts.  Cuboid chunks
        respect the shared key-matrix budget.
        """
        shapes = [self.engine.shape(cuboid) for cuboid in cuboids]
        per_chunk = max(1, _MAX_STACKED_ELEMENTS // max(1, self.n_rows))
        anomalous: List[np.ndarray] = []
        for start in range(0, len(cuboids), per_chunk):
            stop = min(start + per_chunk, len(cuboids))
            anomalous.extend(
                self._stacked_anomalous(
                    cuboids[start:stop], shapes[start:stop], slots
                )
            )
        return [
            StackedLayerCuboid(
                cuboid=cuboid,
                codes=shape.codes,
                support=shape.support,
                anomalous=counts,
            )
            for cuboid, shape, counts in zip(cuboids, shapes, anomalous)
        ]

    # -- Algorithm 1, stacked --------------------------------------------------

    def classification_powers(self) -> np.ndarray:
        """CP of every attribute for every case, shape ``(n_cases, n_attributes)``.

        The per-attribute support/anomalous counts are layer-1 cuboid
        aggregates and come from one stacked pass.  They are laid out as
        the serial :func:`~repro.core.classification_power.all_classification_powers`
        lays them out — one full-size slot per attribute — with one row
        per case, and go through the same elementwise
        :func:`~repro.core.classification_power.cp_terms` and per-slot
        ``np.sum``, so every CP value is bitwise equal to the serial one.
        """
        n = self.n_rows
        n_attributes = self.schema.n_attributes
        if n == 0:
            return np.zeros((self.n_cases, n_attributes))
        slots = list(range(self.n_cases))
        cuboids = [Cuboid((i,)) for i in range(n_attributes)]
        layer = self.layer_counts(cuboids, slots)
        info_d = np.array(
            [binary_entropy(self.n_anomalous(slot) / n) for slot in slots]
        )
        bounds = np.cumsum([0, *self.schema.sizes])
        support = np.zeros(bounds[-1])
        anomalous = np.zeros((len(slots), bounds[-1]))
        for start, entry in zip(bounds, layer):
            columns = start + entry.codes[:, 0]
            support[columns] = entry.support
            anomalous[:, columns] = entry.anomalous
        terms = cp_terms(support, anomalous, n)
        info_attr = np.stack(
            [
                np.sum(terms[:, bounds[i] : bounds[i + 1]], axis=-1)
                for i in range(n_attributes)
            ],
            axis=1,
        )
        return cp_from_info(info_d[:, None], info_attr)

    def attribute_deletions(self, t_cp: float) -> List[AttributeDeletionResult]:
        """Algorithm 1 for every case, from one stacked CP pass.

        Decisions are made by the same
        :func:`~repro.core.classification_power.partition_attributes`
        helper the serial path uses, so kept/deleted sets and their
        CP-descending order are identical to per-case
        :func:`delete_redundant_attributes` calls.
        """
        if t_cp < 0.0:
            raise ValueError("t_cp must be non-negative")
        names = tuple(self.schema.names)
        powers = self.classification_powers()
        results = []
        traced = _trace.ACTIVE
        for slot in range(self.n_cases):
            cp_values = {
                name: float(powers[slot, i]) for i, name in enumerate(names)
            }
            kept, deleted, __ = partition_attributes(cp_values, names, t_cp)
            if traced:
                obs.inc("cp_attributes_total", len(kept), decision="kept")
                obs.inc("cp_attributes_total", len(deleted), decision="deleted")
            results.append(
                AttributeDeletionResult(
                    kept_indices=kept,
                    deleted_indices=deleted,
                    cp_values=cp_values,
                )
            )
        return results
