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
  :meth:`~repro.core.engine.AggregationEngine.key_codes`,
  :meth:`~repro.core.engine.AggregationEngine.key_rows`) and are shared
  by every case.  Only what the search reads is built: keys come from
  the parent cuboid's cached keys, and a confident group's codes are
  decoded from its one occupied key, never a whole cuboid's.
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
  The same pass is the search's layer 1: as in the serial path, one
  aggregation pass serves both stages.

The batched top-down search
(:func:`repro.core.search.batched_layerwise_topdown_search`) drives this
engine layer by layer, once per layout group: a case's lattice over its
kept set is the union lattice restricted to subsets of that set, so one
walk over the union of the group's kept sets serves every case, each
case scanning only its own cuboids and ending at its own depth.  Cases
diverge through the active-case mask (Criteria-3 pruning, coverage early
stop, shallower lattices) while every layer stays one fused pass.  Only integer counts feed
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

from typing import Dict, List, Optional, Sequence

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
    "StackedLayer",
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


class StackedLayer:
    """One BFS layer's stacked counts for a list of case slots.

    Each cuboid's label-free geometry is shared by every case
    (``shapes[j]``: occupied keys, support and lazily decoded group
    codes).  The anomalous supports form one ``(n_slots, n_groups)``
    matrix whose columns are the cuboids' occupied groups laid end to
    end: cuboid ``j`` owns columns ``bounds[j]:bounds[j + 1]``, and
    ``support`` is the matching concatenated leaf support.
    """

    def __init__(
        self,
        cuboids: Sequence[Cuboid],
        shapes: Sequence[_CuboidShape],
        anomalous: np.ndarray,
    ):
        self.cuboids = list(cuboids)
        self.shapes = list(shapes)
        self.anomalous = anomalous
        bounds = [0]
        for shape in self.shapes:
            bounds.append(bounds[-1] + shape.support.size)
        self.bounds = bounds
        self.support = (
            self.shapes[0].support
            if len(self.shapes) == 1
            else np.concatenate([shape.support for shape in self.shapes])
        )

    def select(self, positions: Sequence[int], rows: Sequence[int]) -> "StackedLayer":
        """The layer restricted to cuboids *positions* and slot rows *rows*."""
        positions, rows = list(positions), list(rows)
        if positions == list(range(len(self.cuboids))) and rows == list(
            range(self.anomalous.shape[0])
        ):
            return self
        columns = np.concatenate(
            [np.arange(self.bounds[j], self.bounds[j + 1]) for j in positions]
        )
        return StackedLayer(
            [self.cuboids[j] for j in positions],
            [self.shapes[j] for j in positions],
            self.anomalous[np.ix_(rows, columns)],
        )


class StackedCaseEngine:
    """Fused cuboid aggregation over cases sharing one leaf layout.

    Parameters
    ----------
    datasets:
        Non-empty sequence of leaf tables agreeing on schema and codes
        (labels, ``v`` and ``f`` may differ freely — nothing the stacked
        passes share depends on them).  Use
        :func:`group_datasets_by_layout` to split a mixed collection.
        A mismatch raises ``ValueError``.
    _same_layout:
        Set by :meth:`~repro.core.miner.RAPMiner.run_batch` only: its
        :func:`group_datasets_by_layout` call has already compared every
        member's schema and codes with the group's first member, so the
        same comparisons are not run twice.
    """

    def __init__(
        self, datasets: Sequence[FineGrainedDataset], *, _same_layout: bool = False
    ):
        if not datasets:
            raise ValueError("StackedCaseEngine needs at least one dataset")
        first = datasets[0]
        if not _same_layout:
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
        #: Stacked CP's pass: every single-attribute cuboid (in attribute
        #: order) for every case, which is also the search's layer 1.
        self._cp_layer: Optional[StackedLayer] = None

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
    ) -> np.ndarray:
        """``(len(slots), occupied groups)`` anomalous supports, one fused pass.

        Cuboid linear-key vectors are shifted into disjoint ranges and
        every case's anomalous-row keys are shifted by
        ``case_slot * total_capacity`` on top, so a single ``bincount``
        yields every (case, cuboid, group) count; one gather then keeps
        the occupied groups.  Counts are integers, so the concatenation
        order is irrelevant — chunking over cases cannot change the result.
        """
        n_slots = len(slots)
        key_columns = []
        offsets = []
        occupied = []
        total_capacity = 0
        for cuboid, shape in zip(cuboids, shapes):
            keys, capacity = self.engine.linear_keys(cuboid)
            key_columns.append(keys)
            offsets.append(total_capacity)
            occupied.append(shape.occupied + total_capacity)
            total_capacity += capacity
        columns = occupied[0] if len(occupied) == 1 else np.concatenate(occupied)
        # Chunk cases so one pass allocates at most _MAX_STACKED_BINS bins.
        per_chunk = max(1, _MAX_STACKED_BINS // max(1, total_capacity))
        parts = []
        for chunk_start in range(0, n_slots, per_chunk):
            rows_per_case = [
                self._label_rows[slot]
                for slot in slots[chunk_start : chunk_start + per_chunk]
            ]
            lengths = [rows.size for rows in rows_per_case]
            if sum(lengths) == 0:
                parts.append(np.zeros((len(lengths), columns.size), dtype=np.int64))
                continue
            counts = kernels.stacked_anomalous(
                key_columns,
                offsets,
                total_capacity,
                np.concatenate(rows_per_case),
                lengths,
            )
            parts.append(counts[:, columns])
        if not parts:
            return np.zeros((0, columns.size), dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def layer_counts(
        self, cuboids: Sequence[Cuboid], slots: Sequence[int]
    ) -> StackedLayer:
        """One BFS layer's stacked counts for the requested case slots.

        Support, occupancy and group codes are shared (cached across
        layers of this batch); anomalous supports for all *slots* come
        from fused case-stacked bincounts.  Single-attribute cuboids are
        read from stacked CP's pass once it has run, as in the serial
        path, where one aggregation pass serves both stages.  Cuboid
        chunks respect the shared key-matrix budget.
        """
        cuboids = list(cuboids)
        slots = list(slots)
        if self._cp_layer is not None and all(
            len(cuboid.attribute_indices) == 1 for cuboid in cuboids
        ):
            return self._cp_layer.select(
                [cuboid.attribute_indices[0] for cuboid in cuboids], slots
            )
        shapes = [self.engine.shape(cuboid) for cuboid in cuboids]
        per_chunk = max(1, _MAX_STACKED_ELEMENTS // max(1, self.n_rows))
        parts = [
            self._stacked_anomalous(
                cuboids[start : start + per_chunk],
                shapes[start : start + per_chunk],
                slots,
            )
            for start in range(0, len(cuboids), per_chunk)
        ]
        anomalous = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return StackedLayer(cuboids, shapes, anomalous)

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
        self._cp_layer = layer
        info_d = np.array(
            [binary_entropy(self.n_anomalous(slot) / n) for slot in slots]
        )
        bounds = np.cumsum([0, *self.schema.sizes])
        # A single-attribute cuboid's occupied keys are its element codes.
        columns = np.concatenate(
            [start + shape.occupied for start, shape in zip(bounds, layer.shapes)]
        )
        support = np.zeros(bounds[-1])
        anomalous = np.zeros((len(slots), bounds[-1]))
        support[columns] = layer.support
        anomalous[:, columns] = layer.anomalous
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
