"""Shared-aggregation engine for the cuboid lattice hot path.

Algorithm 2 — and every aggregate-hungry baseline — repeatedly asks the
same two questions of one labelled leaf table: *"group the leaves by this
cuboid"* and *"which leaf rows does this combination cover?"*.  The naive
answers (:meth:`~repro.data.dataset.FineGrainedDataset.aggregate` and
:meth:`~repro.data.dataset.FineGrainedDataset.mask_of`) re-derive
everything from the full leaf table on every call: a per-cuboid linear-key
pass plus four separate ``bincount`` passes, and a full-column boolean
scan per combination.  :class:`AggregationEngine` shares that work:

* **Cached linear keys and aggregates** — per-cuboid key vectors, cuboid
  geometry (sizes/strides/capacity) and :class:`CuboidAggregate` results
  are computed once per dataset and reused by every consumer (search,
  ranking, explanation, the service pipeline, the baselines, and —
  crucially — threshold-sensitivity sweeps that re-run the search many
  times over one interval).
* **Count-only, fused, batched bincount** — all uncached cuboids of one
  BFS layer are aggregated together: their key spaces are disjoint after
  offsetting, so one ``np.bincount`` over the concatenated keys yields
  every cuboid's support, and one over the anomalous rows' keys every
  anomalous support.  Small lattices are prefetched whole in one such
  pass (:meth:`AggregationEngine.prepare`).
* **Lazy value lanes** — CP and the search read counts only, so the
  ``v``/``f`` sums are not computed with them.  Each engine-built
  aggregate carries a :class:`LaneSpec` instead and computes a lane on
  its first read (the Adtributor baseline, derived KPIs): one weighted
  bincount over the cuboid's leaf keys in leaf-row order, which is
  bitwise what an eager cold pass returns on every resolution path.
* **Inverted index** — lazily built per ``(attribute, element-code)``
  posting lists of leaf rows, so a combination's covered rows come from
  sorted-array intersections instead of repeated full-table masks.
* **Warm cloning and patching** — everything that depends only on the
  leaf *codes* (keys, postings, per-cuboid support/occupancy) survives a
  label/value refresh, and :meth:`AggregationEngine.patched_clone` carries
  the cached aggregates across a small label diff as well.
  :class:`~repro.core.delta.DeltaSession` is the one owner that hands an
  engine from one interval to the next this way.
* **One key layout** — row-major strides, disjoint block offsets and
  occupied-key decoding live here only; the case-stacked batch kernel
  (:mod:`repro.core.stacked`) and the delta session read shapes, covered
  rows, single-key decodes and stride plans from the engine instead of
  re-deriving them.  A cuboid's leaf keys are built from its cached
  parent's, and a shape decodes its group codes only when read.

Engines are bound to one :class:`FineGrainedDataset` and shared through
:func:`engine_for`, a per-dataset cache stored on the dataset itself:
within one collection interval the search, the ranking, the service
pipeline and any baseline all hit the same cache, and the cache dies
exactly when its dataset does.

When a :mod:`repro.obs` collector is installed the engine reports its
hot-path behaviour — aggregate resolution paths, bincount passes, batched
cuboids, layer-scan memo hits — as :func:`~repro.obs.trace.tally` counts,
which the enclosing ``miner.run`` / ``search.run`` span reports as its
``engine_*`` attributes.  A tally is a plain integer with no metric
registry behind it, and every bump sits behind the single
``obs.trace.ACTIVE`` flag, so uninstrumented runs pay one boolean read
per site (see ``docs/observability.md``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data.dataset import CuboidAggregate, FineGrainedDataset
from ..obs import trace as _trace
from . import kernels
from .attribute import AttributeCombination
from .cuboid import Cuboid

__all__ = [
    "AggregationEngine",
    "NaiveAggregationEngine",
    "CandidateIndex",
    "LaneSpec",
    "engine_for",
    "install_engine",
    "release_engine",
]


#: Attribute under which :func:`engine_for` caches the engine on its
#: dataset.  Storing the cache on the dataset (rather than in a global
#: ``WeakKeyDictionary`` whose values reference their keys, which makes
#: every entry immortal) means the engine dies with the dataset.  The two
#: form a reference cycle: left alone, only the cyclic collector frees
#: it.  A long-running owner that retires engines at a steady rate
#: breaks the cycle itself with :func:`release_engine` — a
#: :class:`~repro.core.delta.DeltaSession` does so for each engine a tick
#: replaces — so a served case is freed by reference counting.
#: ``FineGrainedDataset.__getstate__`` drops the attribute, so pickled
#: datasets never carry a cache.
_ENGINE_ATTR = "_repro_engine"

#: Upper bound on the element count of one batched pass; layers whose
#: combined (rows x cuboids) size exceeds this are chunked.
_MAX_BATCH_ELEMENTS = 1 << 21


def engine_for(dataset: FineGrainedDataset) -> "AggregationEngine":
    """The shared engine of *dataset*, created on first use."""
    engine = getattr(dataset, _ENGINE_ATTR, None)
    if engine is None:
        engine = AggregationEngine(dataset)
        setattr(dataset, _ENGINE_ATTR, engine)
    return engine


def install_engine(engine: "AggregationEngine") -> "AggregationEngine":
    """Register *engine* as the shared engine of its dataset and return it."""
    setattr(engine.dataset, _ENGINE_ATTR, engine)
    return engine


def release_engine(engine: "AggregationEngine") -> None:
    """Unregister *engine* from its dataset if it is still the shared one.

    Breaks the dataset <-> engine cycle, so both are freed by reference
    counting once their last outside reference goes.
    """
    if getattr(engine.dataset, _ENGINE_ATTR, None) is engine:
        delattr(engine.dataset, _ENGINE_ATTR)


def _decode_keys(occupied: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Element codes, shape (G, d), of a cuboid's occupied row-major keys."""
    if len(sizes) == 1:
        return occupied.reshape(-1, 1)
    return np.stack(np.unravel_index(occupied, sizes), axis=1).astype(np.int64)


class _CuboidShape:
    """Label-independent part of a cuboid aggregate (reused by warm clones).

    ``codes`` is decoded from ``occupied`` on its first read: the stacked
    search reads group codes at its few confident rows only, and decodes
    those one key at a time (:meth:`AggregationEngine.key_codes`).
    """

    __slots__ = ("occupied", "support", "_sizes", "_codes")

    def __init__(
        self,
        occupied: np.ndarray,
        support: np.ndarray,
        sizes: Sequence[int],
        codes: Optional[np.ndarray] = None,
    ):
        #: Flat linear keys of the occupied groups, ascending.
        self.occupied = occupied
        #: Leaf count per occupied group.
        self.support = support
        self._sizes = sizes
        self._codes = codes

    @property
    def codes(self) -> np.ndarray:
        """Element codes per occupied group, shape (G, d)."""
        if self._codes is None:
            self._codes = _decode_keys(self.occupied, self._sizes)
        return self._codes


@dataclass(frozen=True, eq=False)
class LaneSpec:
    """How an engine-built aggregate computes its ``v``/``f`` sums on read.

    Holds arrays only, never the engine or the dataset: an aggregate that
    referenced its engine would close an engine -> aggregate -> engine
    cycle, and a retired engine would then wait for the cyclic collector
    instead of being freed by reference counting.  Picklable on its own.
    """

    #: Leaf code matrix, shape (n_rows, n_attributes).
    codes: np.ndarray
    #: The cuboid's attribute columns and their row-major strides.
    columns: Tuple[int, ...]
    strides: Tuple[int, ...]
    capacity: int
    #: Flat keys of the occupied groups, ascending.
    occupied: np.ndarray
    v: np.ndarray
    f: np.ndarray
    #: The cuboid's leaf keys, when the engine had them cached.
    keys: Optional[np.ndarray] = None

    def _lane(self, weights: np.ndarray) -> np.ndarray:
        keys = self.keys
        if keys is None:
            keys = self.codes[:, self.columns[0]] * self.strides[0]
            for column, stride in zip(self.columns[1:], self.strides[1:]):
                keys = keys + self.codes[:, column] * stride
        if _trace.ACTIVE:
            _trace.tally("engine_bincount_lane")
        return kernels.weighted_bincount(keys, weights, self.capacity)[self.occupied]

    def v_sum(self) -> np.ndarray:
        return self._lane(self.v)

    def f_sum(self) -> np.ndarray:
        return self._lane(self.f)


class AggregationEngine:
    """Per-dataset cache of cuboid aggregates, linear keys and posting lists.

    Parameters
    ----------
    dataset:
        The leaf table this engine serves.  One engine never outlives its
        dataset (see :func:`engine_for`).
    """

    #: The kernel set every pass runs on (:mod:`repro.core.kernels`);
    #: ``engine.backend.info()`` names it in benchmark reports.
    backend = kernels

    #: Largest cuboid lattice :meth:`prepare` aggregates in one batched
    #: pass; wider attribute sets are aggregated layer by layer.
    _MAX_PREFETCH_CUBOIDS = 64

    def __init__(self, dataset: FineGrainedDataset):
        self.dataset = dataset
        self._sizes = list(dataset.schema.sizes)
        #: indices tuple -> (sizes, strides, capacity); tiny, but recomputed
        #: on every call of the hot path without the cache.
        self._geometries: Dict[Tuple[int, ...], Tuple[List[int], List[int], int]] = {}
        self._keys: Dict[Tuple[int, ...], np.ndarray] = {}
        self._shapes: Dict[Tuple[int, ...], _CuboidShape] = {}
        self._aggregates: Dict[Tuple[int, ...], CuboidAggregate] = {}
        #: Attribute sets already prepared, so repeated searches skip the check.
        self._prepared: Set[Tuple[int, ...]] = set()
        #: attribute column -> posting list per element code (built lazily,
        #: only for attributes that are actually queried).
        self._postings: Dict[int, List[np.ndarray]] = {}
        self._rows: Dict[Tuple[int, ...], np.ndarray] = {}
        #: Indices of the anomalous leaf rows (anomalous supports are
        #: counted over these instead of weighting the whole table).
        self._label_rows: Optional[np.ndarray] = None
        #: Per-layer (aggregates, concatenated confidences, boundaries) for
        #: :meth:`layer_scan`, keyed by the layer's cuboid tuple
        #: (label-dependent: never shared with warm clones).
        self._layer_confidences: Dict[tuple, tuple] = {}
        #: Resolved layer scans keyed by (cuboid tuple, t_conf): a grid
        #: sweep revisits the same thresholds, so the threshold probe and
        #: per-cuboid hit split are themselves memoizable.
        self._layer_scans: Dict[tuple, list] = {}
        #: The last :meth:`patched_clone` stride plan, keyed by its
        #: cached-cuboid tuple and shared with warm clones: a stream's
        #: cached set rarely changes between ticks.  One entry, so a long
        #: stream whose set keeps changing cannot grow it.
        self._patch_plans: Dict[tuple, tuple] = {}

    # -- geometry and keys -----------------------------------------------------

    def _geometry(
        self, indices: Tuple[int, ...]
    ) -> Tuple[List[int], List[int], int]:
        geometry = self._geometries.get(indices)
        if geometry is None:
            sizes = [self._sizes[i] for i in indices]
            strides = [1] * len(sizes)
            for i in range(len(sizes) - 2, -1, -1):
                strides[i] = strides[i + 1] * sizes[i + 1]
            capacity = 1
            for size in sizes:
                capacity *= size
            geometry = (sizes, strides, capacity)
            self._geometries[indices] = geometry
        return geometry

    def _keys_for(self, indices: Tuple[int, ...]) -> np.ndarray:
        keys = self._keys.get(indices)
        if keys is None:
            if len(indices) == 1:
                # Contiguous copy: np.bincount copies a strided column
                # view on every call, and these keys feed many passes.
                keys = np.ascontiguousarray(self.dataset.codes[:, indices[0]])
            else:
                # Row-major: the key is the parent cuboid's key (the last
                # attribute dropped) times that attribute's size plus its
                # code, so a BFS builds each layer from the cached one above.
                keys = self._keys_for(indices[:-1]) * self._sizes[indices[-1]]
                keys += self._keys_for(indices[-1:])
            self._keys[indices] = keys
        return keys

    def _stride_plan(
        self, keys: Sequence[Tuple[int, ...]]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(stride_matrix, offsets, total)`` laying out several cuboids at once.

        Column ``j`` of the stride matrix holds cuboid ``j``'s strides, so
        :func:`~repro.core.kernels.block_keys` gives every cuboid's linear
        keys at once; the offsets shift each cuboid's key space into a
        disjoint range of ``[0, total)``, so one bincount counts them all.
        """
        stride_matrix = np.zeros((len(self._sizes), len(keys)), dtype=np.int64)
        offsets = np.empty(len(keys), dtype=np.int64)
        total = 0
        for j, indices in enumerate(keys):
            __, strides, capacity = self._geometry(indices)
            for position, attr in enumerate(indices):
                stride_matrix[attr, j] = strides[position]
            offsets[j] = total
            total += capacity
        return stride_matrix, offsets, total

    def key_codes(self, indices: Tuple[int, ...], key: int) -> Tuple[int, ...]:
        """Element codes of one occupied linear key of the cuboid over *indices*.

        The one-group inverse of the row-major layout, for readers that
        need a few groups of a cuboid and not its whole ``codes`` matrix.
        """
        sizes = self._geometry(indices)[0]
        codes = [0] * len(sizes)
        for position in range(len(sizes) - 1, 0, -1):
            key, codes[position] = divmod(key, sizes[position])
        codes[0] = key
        return tuple(codes)

    def linear_keys(self, cuboid: Cuboid) -> Tuple[np.ndarray, int]:
        """Cached ``(keys, capacity)`` of *cuboid* over the leaf rows."""
        indices = cuboid.attribute_indices
        if any(i < 0 or i >= len(self._sizes) for i in indices):
            raise IndexError("cuboid attribute index out of range for schema")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError("cuboid attribute indices must be sorted and unique")
        return self._keys_for(indices), self._geometry(indices)[2]

    def _anomalous_rows(self) -> np.ndarray:
        if self._label_rows is None:
            self._label_rows = np.flatnonzero(self.dataset.labels)
        return self._label_rows

    def _lanes(self, indices: Tuple[int, ...], occupied: np.ndarray) -> LaneSpec:
        """The lazy ``v``/``f`` recipe of one cuboid over this dataset."""
        dataset = self.dataset
        __, strides, capacity = self._geometry(indices)
        return LaneSpec(
            codes=dataset.codes,
            columns=indices,
            strides=tuple(strides),
            capacity=capacity,
            occupied=occupied,
            v=dataset.v,
            f=dataset.f,
            keys=self._keys.get(indices),
        )

    # -- fused aggregation -----------------------------------------------------

    def _aggregate_batch(self, cuboids: Sequence[Cuboid]) -> None:
        """Count several uncached cuboids in one set of batched passes.

        Each cuboid's linear keys are shifted into a disjoint range, so
        bincounts over the concatenated keys yield every cuboid's counts
        at once: support via the integer fast path and anomalous support
        by counting only the anomalous rows' keys.  The ``v``/``f`` lanes
        are left to each aggregate's :class:`LaneSpec`.
        """
        dataset = self.dataset
        keys = [cuboid.attribute_indices for cuboid in cuboids]
        stride_matrix, offsets, total = self._stride_plan(keys)
        label_rows = self._anomalous_rows()
        support_all, anomalous_all = kernels.fused_batch(
            dataset.codes, stride_matrix, offsets, total, label_rows
        )
        if _trace.ACTIVE:
            _trace.tally("engine_batch_cuboids", len(cuboids))
            _trace.tally("engine_bincount_batched", 2 if label_rows.size else 1)
        for cuboid, indices, start in zip(cuboids, keys, offsets.tolist()):
            end = start + self._geometry(indices)[2]
            support = support_all[start:end]
            occupied = np.flatnonzero(support)
            sizes = self._geometry(indices)[0]
            aggregate = CuboidAggregate(
                cuboid=cuboid,
                schema=dataset.schema,
                codes=_decode_keys(occupied, sizes),
                support=support[occupied].astype(np.int64, copy=False),
                anomalous_support=anomalous_all[start:end][occupied].astype(
                    np.int64, copy=False
                ),
                lanes=self._lanes(indices, occupied),
            )
            if indices not in self._shapes:
                self._shapes[indices] = _CuboidShape(
                    occupied, aggregate.support, sizes, aggregate.codes
                )
            self._aggregates[indices] = aggregate

    def shape(self, cuboid: Cuboid) -> _CuboidShape:
        """Label-free occupancy, support and group codes of *cuboid* (cached).

        One count bincount over the cuboid's cached leaf keys; the group
        codes are decoded only if read.  Consumers that bring their own
        labels (the case-stacked batch kernel) read only this, so no
        anomalous pass runs for the engine's own labels.
        """
        indices = cuboid.attribute_indices
        shape = self._shapes.get(indices)
        if shape is None:
            keys, capacity = self.linear_keys(cuboid)
            support = kernels.count_bincount(keys, capacity)
            occupied = np.flatnonzero(support)
            shape = _CuboidShape(
                occupied,
                support[occupied].astype(np.int64, copy=False),
                self._geometry(indices)[0],
            )
            self._shapes[indices] = shape
        return shape

    def prepare(self, attribute_indices: Sequence[int]) -> None:
        """Prefetch aggregation state for a search over *attribute_indices*.

        Small lattices (at most :attr:`_MAX_PREFETCH_CUBOIDS` cuboids
        within the batch element budget) are aggregated in one batched
        pass — a single key fill plus two bincounts covers every
        cuboid the search can visit, which beats per-layer passes when
        the per-call ``numpy`` overhead dominates the per-row work.
        Wider attribute sets are left to :meth:`layer_aggregates`.
        """
        indices = tuple(sorted(set(int(i) for i in attribute_indices)))
        if indices in self._prepared:
            return
        n_lattice = (1 << len(indices)) - 1
        if (
            indices
            and n_lattice <= self._MAX_PREFETCH_CUBOIDS
            and n_lattice * self.dataset.n_rows <= _MAX_BATCH_ELEMENTS
        ):
            cold = [
                Cuboid(subset)
                for layer in range(1, len(indices) + 1)
                for subset in itertools.combinations(indices, layer)
                if subset not in self._aggregates and subset not in self._shapes
            ]
            if cold:
                self._aggregate_batch(cold)
        self._prepared.add(indices)

    def aggregate(self, cuboid: Cuboid) -> CuboidAggregate:
        """Cached per-cuboid aggregate (drop-in for ``dataset.aggregate``).

        Resolution order: cached aggregate -> label refresh of a warm
        shape -> fused bincount over the leaves.  Every path returns the
        naive path's combinations and counts, and ``v``/``f`` lanes that
        compute, when read, bitwise what a cold leaf-level pass returns.
        """
        indices = cuboid.attribute_indices
        aggregate = self._aggregates.get(indices)
        if aggregate is not None:
            if _trace.ACTIVE:
                _trace.tally("engine_aggregate_cache_hit")
            return aggregate
        shape = self._shapes.get(indices)
        if shape is not None:
            # Warm path (cloned engine): occupancy and support survive a
            # label/value refresh — they depend only on the codes — so only
            # the anomalous rows' keys are counted.
            if _trace.ACTIVE:
                _trace.tally("engine_aggregate_warm_refresh")
                _trace.tally("engine_bincount_warm_refresh")
            keys, capacity = self.linear_keys(cuboid)
            label_rows = self._anomalous_rows()
            if label_rows.size:
                anomalous = kernels.count_bincount(keys[label_rows], capacity)[
                    shape.occupied
                ]
            else:
                anomalous = np.zeros(shape.occupied.size, dtype=np.int64)
            aggregate = CuboidAggregate(
                cuboid=cuboid,
                schema=self.dataset.schema,
                codes=shape.codes,
                support=shape.support,
                anomalous_support=anomalous.astype(np.int64, copy=False),
                lanes=self._lanes(indices, shape.occupied),
            )
            self._aggregates[indices] = aggregate
            return aggregate
        if _trace.ACTIVE:
            _trace.tally("engine_aggregate_cold")
        self._aggregate_batch([cuboid])
        return self._aggregates[indices]

    def aggregate_with_labels(
        self, cuboid: Cuboid, labels: np.ndarray
    ) -> CuboidAggregate:
        """The cuboid aggregate under an alternative label vector.

        Support, occupancy, codes and the ``v``/``f`` lanes are label
        independent and come from the shared cache; only the anomalous
        support is recomputed (one bincount over the cached keys).  This
        is what lets Squeeze score many deviation clusters against one
        set of cached aggregates.
        """
        base = self.aggregate(cuboid)
        keys, capacity = self.linear_keys(cuboid)
        shape = self._shapes[cuboid.attribute_indices]
        if _trace.ACTIVE:
            _trace.tally("engine_bincount_relabel")
        anomalous = kernels.weighted_bincount(
            keys, np.asarray(labels, dtype=float), capacity
        )[shape.occupied]
        return CuboidAggregate(
            cuboid=base.cuboid,
            schema=base.schema,
            codes=base.codes,
            support=base.support,
            anomalous_support=np.rint(anomalous).astype(np.int64),
            lanes=base.lanes,
        )

    def layer_aggregates(self, cuboids: Sequence[Cuboid]) -> Iterator[CuboidAggregate]:
        """Aggregates of one layer's cuboids, batch-fused.

        Uncached cuboids are aggregated together in fused-bincount passes
        (see :meth:`_aggregate_batch`), chunked so no pass exceeds
        ``_MAX_BATCH_ELEMENTS``.  Results are yielded in input order.
        """
        cold = [
            cuboid
            for cuboid in cuboids
            if cuboid.attribute_indices not in self._aggregates
            and cuboid.attribute_indices not in self._shapes
        ]
        if cold:
            per_chunk = max(1, _MAX_BATCH_ELEMENTS // max(1, self.dataset.n_rows))
            for i in range(0, len(cold), per_chunk):
                self._aggregate_batch(cold[i : i + per_chunk])
        return iter([self.aggregate(cuboid) for cuboid in cuboids])

    def layer_scan(self, cuboids: Sequence[Cuboid], t_conf: float):
        """One BFS layer's ``(aggregate, anomalous group rows)`` pairs.

        The layer's per-group confidences are concatenated once per engine
        (one cached vector per layer of each searched attribute set), so a
        threshold probe — the per-search hot loop of a ``t_conf``
        sensitivity sweep — costs a single vectorized comparison for the
        whole layer instead of one pass per cuboid.  Row indices are
        yielded ascending per cuboid, matching a per-cuboid scan exactly.
        Resolved scans are memoized per ``(layer, t_conf)``: a grid sweep
        that revisits a threshold replays the split for free.
        """
        key = tuple(cuboid.attribute_indices for cuboid in cuboids)
        scan_key = (key, t_conf)
        memo = self._layer_scans.get(scan_key)
        if memo is not None:
            if _trace.ACTIVE:
                _trace.tally("engine_layer_scan_memo_hits")
            return memo
        entry = self._layer_confidences.get(key)
        if entry is None:
            aggregates = list(self.layer_aggregates(cuboids))
            confidences = [aggregate.confidence for aggregate in aggregates]
            concatenated = (
                confidences[0] if len(confidences) == 1 else np.concatenate(confidences)
            )
            boundaries = [0]
            for column in confidences:
                boundaries.append(boundaries[-1] + len(column))
            entry = (aggregates, concatenated, boundaries)
            self._layer_confidences[key] = entry
        aggregates, concatenated, boundaries = entry
        hits = np.flatnonzero(concatenated > t_conf).tolist()
        position = 0
        n_hits = len(hits)
        scanned = []
        for index, aggregate in enumerate(aggregates):
            low, high = boundaries[index], boundaries[index + 1]
            rows: List[int] = []
            while position < n_hits and hits[position] < high:
                rows.append(hits[position] - low)
                position += 1
            scanned.append((aggregate, rows))
        self._layer_scans[scan_key] = scanned
        return scanned

    # -- inverted index --------------------------------------------------------

    def _postings_for(self, column: int) -> List[np.ndarray]:
        """Sorted row postings per element code of one attribute (lazy)."""
        lists = self._postings.get(column)
        if lists is None:
            codes = self.dataset.codes[:, column]
            order = np.argsort(codes, kind="stable")
            bounds = np.searchsorted(codes[order], np.arange(self._sizes[column] + 1))
            lists = [
                order[bounds[c] : bounds[c + 1]] for c in range(self._sizes[column])
            ]
            self._postings[column] = lists
        return lists

    def rows_of(self, combination: AttributeCombination) -> np.ndarray:
        """Sorted leaf-row indices covered by *combination*.

        Computed by intersecting the specified attributes' posting lists
        (smallest first), so the cost scales with the combination's
        support rather than the table size.  Results are cached per
        combination and shared with warm clones.
        """
        encoded = self.dataset.encode_combination(combination)
        return self._rows_of_encoded(tuple(int(code) for code in encoded))

    def _rows_of_encoded(self, encoded: Tuple[int, ...]) -> np.ndarray:
        cached = self._rows.get(encoded)
        if cached is not None:
            return cached
        lists = [
            self._postings_for(column)[code]
            for column, code in enumerate(encoded)
            if code >= 0
        ]
        if not lists:
            rows = np.arange(self.dataset.n_rows, dtype=np.int64)
        elif len(lists) == 1:
            rows = lists[0]
        else:
            lists.sort(key=len)
            rows = lists[0]
            for other in lists[1:]:
                if rows.size == 0:
                    break
                rows = np.intersect1d(rows, other, assume_unique=True)
        self._rows[encoded] = rows
        return rows

    def group_rows(self, aggregate: CuboidAggregate, index: int) -> np.ndarray:
        """Covered leaf rows of one aggregate group, by integer codes.

        Equivalent to ``rows_of(aggregate.combination(index))`` without
        the code -> name -> code round trip (see :meth:`key_rows`).
        """
        indices = aggregate.cuboid.attribute_indices
        codes = tuple(int(code) for code in aggregate.codes[index])
        __, strides, __ = self._geometry(indices)
        key = sum(code * stride for code, stride in zip(codes, strides))
        return self.key_rows(indices, codes, key)

    def key_rows(
        self, indices: Tuple[int, ...], codes: Tuple[int, ...], key: int
    ) -> np.ndarray:
        """Covered leaf rows of the group with element *codes* and linear *key*.

        Membership is one equality scan over the cuboid's cached linear
        keys: the search's coverage loop only touches the few groups that
        become candidates, so a direct scan beats materializing posting
        lists for every attribute the search visits.  Results land in the
        same row cache that :meth:`rows_of` reads; covered rows depend on
        the codes alone, not on any case's labels.
        """
        encoded = [-1] * len(self._sizes)
        for attr_index, code in zip(indices, codes):
            encoded[attr_index] = code
        cache_key = tuple(encoded)
        cached = self._rows.get(cache_key)
        if cached is not None:
            return cached
        rows = np.flatnonzero(self._keys_for(indices) == key)
        self._rows[cache_key] = rows
        return rows

    # -- warm cloning ----------------------------------------------------------

    def compatible_with(self, dataset: FineGrainedDataset) -> bool:
        """True when *dataset* shares this engine's leaf population (codes)."""
        mine = self.dataset
        return (
            dataset.schema == mine.schema
            and dataset.codes.shape == mine.codes.shape
            and (
                dataset.codes is mine.codes
                or np.array_equal(dataset.codes, mine.codes)
            )
        )

    def warm_clone(self, dataset: FineGrainedDataset) -> "AggregationEngine":
        """Engine for a new interval over the same leaf population.

        Shares every code-derived structure (geometry, linear keys,
        posting lists, row caches, per-cuboid occupancy/support/codes) and
        drops everything label- or value-dependent.  The clone is
        installed as the dataset's shared engine, so a subsequent full
        search reuses the warm caches too.

        Raises ``ValueError`` if the datasets disagree on schema or codes.
        """
        if not self.compatible_with(dataset):
            raise ValueError("warm_clone needs an identical leaf population")
        return self._warm_clone(dataset)

    def _warm_clone(self, dataset: FineGrainedDataset) -> "AggregationEngine":
        """:meth:`warm_clone` for a caller that already compared the codes."""
        clone = AggregationEngine(dataset)
        clone._geometries = self._geometries
        clone._keys = self._keys
        clone._postings = self._postings
        clone._shapes = dict(self._shapes)
        clone._rows = self._rows
        clone._patch_plans = self._patch_plans
        return install_engine(clone)

    def patched_clone(
        self, dataset: FineGrainedDataset, changed: np.ndarray
    ) -> Tuple["AggregationEngine", int]:
        """Warm clone for *dataset* with every cached aggregate carried over.

        *changed* holds the indices of the rows whose ``v``, ``f`` or
        label differ between this engine's dataset and *dataset*.
        Anomalous support is patched in exact integer arithmetic from the
        label flips among them (one :func:`~repro.core.kernels.delta_patch`
        over every cached cuboid); occupancy, support and group codes are
        shared by reference, and the ``v``/``f`` lanes are bound to
        *dataset*'s arrays and computed when read.  Carried counts land on
        new :class:`CuboidAggregate` objects, so per-aggregate caches (the
        confidence vector) never leak stale values across ticks.  Returns
        the clone and the number of aggregates it carried.

        *dataset* must share this engine's leaf codes: the caller diffed
        its rows against this engine's, so it has compared them already
        (:meth:`~repro.core.delta.DeltaSession.begin_tick` does so once
        per tick), and no second comparison runs here.
        """
        clone = self._warm_clone(dataset)
        keys = tuple(sorted(self._aggregates))
        if not keys:
            return clone, 0
        if changed.size == 0:
            # Identical tick: every cached aggregate is still exact.
            clone._aggregates.update(self._aggregates)
            return clone, len(keys)
        old_labels = self.dataset.labels[changed]
        new_labels = dataset.labels[changed]
        gained = new_labels & ~old_labels
        lost = old_labels & ~new_labels
        anomalous_delta = None
        if gained.any() or lost.any():
            plan = self._patch_plans.get(keys)
            if plan is None:
                plan = self._stride_plan(keys)
                self._patch_plans.clear()
                self._patch_plans[keys] = plan
            stride_matrix, offsets, total = plan
            anomalous_delta = kernels.delta_patch(
                dataset.codes[changed], stride_matrix, offsets, total, gained, lost
            )
            if _trace.ACTIVE:
                _trace.tally("engine_bincount_delta_patch", 2)
        for j, indices in enumerate(keys):
            aggregate = self._aggregates[indices]
            occupied = self._shapes[indices].occupied
            anomalous = aggregate.anomalous_support
            if anomalous_delta is not None:
                anomalous = anomalous + anomalous_delta[offsets[j] + occupied]
            clone._aggregates[indices] = CuboidAggregate(
                cuboid=aggregate.cuboid,
                schema=dataset.schema,
                codes=aggregate.codes,
                support=aggregate.support,
                anomalous_support=anomalous,
                lanes=clone._lanes(indices, occupied),
            )
        return clone, len(keys)


class NaiveAggregationEngine(AggregationEngine):
    """Reference adapter reproducing the pre-engine cost profile.

    Every call re-derives its answer from the full leaf table through the
    naive :class:`FineGrainedDataset` methods — no caching, no fused or
    batched passes, no posting lists.  The speedup benchmark
    runs the shared search code against this adapter to measure exactly
    what the engine buys, with bit-identical candidate sets.
    """

    def linear_keys(self, cuboid: Cuboid) -> Tuple[np.ndarray, int]:
        capacity = 1
        for index in cuboid.attribute_indices:
            capacity *= self.dataset.schema.size(index)
        return self.dataset.linear_keys(cuboid), capacity

    def prepare(self, attribute_indices: Sequence[int]) -> None:
        return None

    def aggregate(self, cuboid: Cuboid) -> CuboidAggregate:
        return self.dataset.aggregate(cuboid)

    def aggregate_with_labels(
        self, cuboid: Cuboid, labels: np.ndarray
    ) -> CuboidAggregate:
        return self.dataset.with_labels(labels).aggregate(cuboid)

    def layer_aggregates(self, cuboids: Sequence[Cuboid]) -> Iterator[CuboidAggregate]:
        return (self.aggregate(cuboid) for cuboid in cuboids)

    def layer_scan(self, cuboids: Sequence[Cuboid], t_conf: float):
        # Lazy per-cuboid scan: cuboids past an early stop are never
        # aggregated, exactly like the pre-engine search.
        for cuboid in cuboids:
            aggregate = self.aggregate(cuboid)
            rows = np.flatnonzero(aggregate.confidence > t_conf)
            yield aggregate, [int(row) for row in rows]

    def rows_of(self, combination: AttributeCombination) -> np.ndarray:
        return np.flatnonzero(self.dataset.mask_of(combination))

    def group_rows(self, aggregate: CuboidAggregate, index: int) -> np.ndarray:
        return self.rows_of(aggregate.combination(index))

    def warm_clone(self, dataset: FineGrainedDataset) -> "AggregationEngine":
        return NaiveAggregationEngine(dataset)


class CandidateIndex:
    """Cuboid-bucketed ancestor lookup for Criteria 3.

    Candidates are bucketed by the attribute set they specify; whether a
    new combination descends from any candidate is answered by projecting
    it onto each strictly-coarser bucket and testing set membership —
    O(#occupied cuboids) dictionary probes instead of an O(#candidates)
    Python scan per combination.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Tuple[int, ...], set] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def add_entry(self, spec: Tuple[int, ...], values: tuple) -> None:
        """Store one candidate as its specified indices plus value tuple.

        ``values`` may hold element names or integer codes — any hashable
        per-attribute representation works as long as lookups use the
        same one (the search uses raw codes to skip decoding).
        """
        self._buckets.setdefault(spec, set()).add(values)

    def has_ancestor_entry(self, spec: frozenset, lookup) -> bool:
        """True when any stored candidate is a strict ancestor.

        ``lookup(attribute_index)`` must return the probed combination's
        value for that attribute, in the same representation the entries
        were stored with.
        """
        n_spec = len(spec)
        for bucket_spec, seen in self._buckets.items():
            if len(bucket_spec) >= n_spec:
                continue
            if not spec.issuperset(bucket_spec):
                continue
            if tuple(lookup(i) for i in bucket_spec) in seen:
                return True
        return False
