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
* **Fused, batched bincount** — all uncached cuboids of one BFS layer
  are aggregated together: their key spaces are disjoint after
  offsetting, so one ``np.bincount`` per lane over the concatenated keys
  replaces four bincounts per cuboid.  Support and anomalous support use
  the integer fast path (anomalous rows are counted directly instead of
  weighting the whole table); roll-ups and warm label refreshes use a
  stacked-weights bincount that folds their lanes into a single pass.
* **Layer roll-ups** — once a *base* cuboid over a searched attribute set
  is aggregated (``G`` occupied groups), every sub-cuboid is computed by
  grouping those ``G`` rows instead of the ``N`` leaves.  The cuboid
  lattice is a semilattice under attribute-set union, so any cached
  aggregate over a superset of a cuboid's attributes is a valid roll-up
  source; bases are only materialized when their group capacity is
  strictly below the leaf count, i.e. when rolling up is a guaranteed win
  (typical after Algorithm 1 deletes attributes).  Counts are
  integer-exact either way; ``v``/``f`` sums may differ from the naive
  path by float summation order only.
* **Inverted index** — lazily built per ``(attribute, element-code)``
  posting lists of leaf rows, so a combination's covered rows come from
  sorted-array intersections instead of repeated full-table masks.
* **Parallel layer fan-out** — the batched passes of one BFS layer can be
  chunked across a ``concurrent.futures`` thread pool
  (:attr:`~repro.core.config.RAPMinerConfig.n_jobs`); every cuboid's
  aggregate is independent, so results are identical for any worker
  count.
* **Warm cloning** — everything that depends only on the leaf *codes*
  (keys, postings, per-cuboid support/occupancy) survives a label/value
  refresh, which is what makes the incremental miner's exact re-search
  cheap across the intervals of one incident.

Engines are bound to one :class:`FineGrainedDataset` and shared through
:func:`engine_for`, a per-dataset cache stored on the dataset itself:
within one collection interval the search, the ranking, the service
pipeline and any baseline all hit the same cache, and the cache dies
exactly when its dataset does.

When a :mod:`repro.obs` collector is installed the engine reports its
hot-path behaviour — aggregate resolution paths, bincount passes, prefetch
decisions, thread-pool fan-out, row-cache hits — as counters; every bump
sits behind the single ``obs.trace.ACTIVE`` flag, so uninstrumented runs
pay one boolean read per site (see ``docs/observability.md``).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..data.dataset import CuboidAggregate, FineGrainedDataset
from ..obs import trace as _trace
from . import kernels
from .attribute import AttributeCombination
from .cuboid import Cuboid

__all__ = [
    "AggregationEngine",
    "NaiveAggregationEngine",
    "CandidateIndex",
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
#: breaks the cycle itself with :func:`release_engine` — the fleet does
#: so for each worker's previous warm source — so a served case is freed
#: by reference counting.  ``FineGrainedDataset.__getstate__`` drops the
#: attribute, so pickled datasets never carry a cache.
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


@dataclass
class _CuboidShape:
    """Label-independent part of a cuboid aggregate (reused by warm clones)."""

    #: Flat linear keys of the occupied groups, ascending.
    occupied: np.ndarray
    #: Leaf count per occupied group.
    support: np.ndarray
    #: Element codes per occupied group, shape (G, d).
    codes: np.ndarray


class AggregationEngine:
    """Per-dataset cache of cuboid aggregates, linear keys and posting lists.

    Parameters
    ----------
    dataset:
        The leaf table this engine serves.  One engine never outlives its
        dataset (see :func:`engine_for`).
    n_jobs:
        Default worker count for :meth:`layer_aggregates`; ``1`` keeps
        everything on the calling thread.
    """

    #: The kernel set every pass runs on (:mod:`repro.core.kernels`);
    #: ``engine.backend.info()`` names it in benchmark reports.
    backend = kernels

    #: Largest cuboid lattice :meth:`prepare` aggregates in one batched
    #: pass; wider attribute sets fall back to seeding a roll-up base.
    _MAX_PREFETCH_CUBOIDS = 64

    def __init__(self, dataset: FineGrainedDataset, n_jobs: int = 1):
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        self.dataset = dataset
        self.n_jobs = n_jobs
        self._sizes = list(dataset.schema.sizes)
        #: indices tuple -> (sizes, strides, capacity); tiny, but recomputed
        #: on every call of the hot path without the cache.
        self._geometries: Dict[Tuple[int, ...], Tuple[List[int], List[int], int]] = {}
        self._keys: Dict[Tuple[int, ...], np.ndarray] = {}
        self._shapes: Dict[Tuple[int, ...], _CuboidShape] = {}
        self._aggregates: Dict[Tuple[int, ...], CuboidAggregate] = {}
        #: Roll-up sources seeded by :meth:`prepare` (attribute set -> aggregate).
        self._bases: Dict[Tuple[int, ...], CuboidAggregate] = {}
        #: prepare() decisions, memoized so repeated searches skip the check.
        self._prepared: Dict[Tuple[int, ...], Optional[CuboidAggregate]] = {}
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
            codes = self.dataset.codes
            if len(indices) == 1:
                # Contiguous copy: np.bincount copies a strided column
                # view on every call, and these keys feed many passes.
                keys = np.ascontiguousarray(codes[:, indices[0]])
            else:
                __, strides, __ = self._geometry(indices)
                keys = codes[:, indices[0]] * int(strides[0])
                for position in range(1, len(indices)):
                    keys += codes[:, indices[position]] * int(strides[position])
            self._keys[indices] = keys
        return keys

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

    # -- fused aggregation -----------------------------------------------------

    def _aggregate_batch(self, cuboids: Sequence[Cuboid]) -> None:
        """Aggregate several uncached cuboids in one set of batched passes.

        Each cuboid's linear keys are shifted into a disjoint range, so
        bincounts over the concatenated keys yield every cuboid's lanes at
        once: support via the integer fast path, anomalous support by
        counting only the anomalous rows' keys, and ``v``/``f`` via two
        weighted passes.  Per-bucket additions still happen in leaf-row
        order, so the results are bitwise identical to aggregating each
        cuboid alone.
        """
        dataset = self.dataset
        n_blocks = len(cuboids)
        # Column j of the stride matrix holds cuboid j's strides; one
        # integer matmul turns it into every cuboid's linear keys at once.
        stride_matrix = np.zeros((len(self._sizes), n_blocks), dtype=np.int64)
        offsets = np.empty(n_blocks, dtype=np.int64)
        metas: List[Tuple[Cuboid, int, int, List[int]]] = []
        offset = 0
        for j, cuboid in enumerate(cuboids):
            indices = cuboid.attribute_indices
            sizes, strides, capacity = self._geometry(indices)
            for position, attr in enumerate(indices):
                stride_matrix[attr, j] = strides[position]
            offsets[j] = offset
            metas.append((cuboid, offset, capacity, sizes))
            offset += capacity
        label_rows = self._anomalous_rows()
        support_all, anomalous_all, v_all, f_all = kernels.fused_batch(
            dataset.codes, stride_matrix, offsets, offset, label_rows,
            dataset.v, dataset.f,
        )
        if _trace.ACTIVE:
            obs.inc("engine_batch_cuboids_total", n_blocks)
            obs.inc(
                "engine_bincount_passes_total",
                4 if label_rows.size else 3,
                kind="batched",
            )
        for cuboid, start, capacity, sizes in metas:
            end = start + capacity
            support = support_all[start:end]
            occupied = np.flatnonzero(support)
            if len(sizes) == 1:
                codes = occupied.reshape(-1, 1)
            else:
                codes = np.stack(np.unravel_index(occupied, sizes), axis=1).astype(
                    np.int64
                )
            aggregate = CuboidAggregate(
                cuboid=cuboid,
                schema=dataset.schema,
                codes=codes,
                support=support[occupied].astype(np.int64, copy=False),
                anomalous_support=anomalous_all[start:end][occupied].astype(
                    np.int64, copy=False
                ),
                v_sum=v_all[start:end][occupied],
                f_sum=f_all[start:end][occupied],
            )
            key = cuboid.attribute_indices
            if key not in self._shapes:
                self._shapes[key] = _CuboidShape(
                    occupied=occupied, support=aggregate.support, codes=aggregate.codes
                )
            self._aggregates[key] = aggregate

    def prepare(self, attribute_indices: Sequence[int]) -> Optional[CuboidAggregate]:
        """Prefetch aggregation state for a search over *attribute_indices*.

        Small lattices (at most :attr:`_MAX_PREFETCH_CUBOIDS` cuboids
        within the batch element budget) are aggregated in one batched
        pass — a single key matmul plus four bincounts covers every
        cuboid the search can visit, which beats per-layer passes when
        the per-call ``numpy`` overhead dominates the per-row work.
        Wider attribute sets instead seed a roll-up base, materialized
        only when its group capacity is strictly below the leaf count —
        the cheap sufficient condition for every roll-up from it to
        group fewer rows than a leaf-level pass would (true whenever
        Algorithm 1 deleted attributes; for a base as wide as the table
        rolling up cannot win).  Returns the base aggregate when its
        capacity beats the leaf count, else ``None``.
        """
        indices = tuple(sorted(set(int(i) for i in attribute_indices)))
        if indices in self._prepared:
            if _trace.ACTIVE:
                obs.inc("engine_prepare_total", outcome="memoized")
            return self._prepared[indices]
        outcome = "no_prefetch"
        base: Optional[CuboidAggregate] = None
        if indices:
            __, __, capacity = self._geometry(indices)
            n_lattice = (1 << len(indices)) - 1
            if (
                n_lattice <= self._MAX_PREFETCH_CUBOIDS
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
                outcome = "full_lattice"
            if capacity < self.dataset.n_rows:
                base = self.aggregate(Cuboid(indices))
                self._bases[indices] = base
                if outcome == "no_prefetch":
                    outcome = "base_seeded"
        self._prepared[indices] = base
        if _trace.ACTIVE:
            obs.inc("engine_prepare_total", outcome=outcome)
        return base

    def _rollup_source(self, indices: Tuple[int, ...]) -> Optional[CuboidAggregate]:
        """Smallest prepared base strictly containing *indices* (or None).

        Restricted to :meth:`prepare`-seeded bases — not arbitrary cached
        supersets — so the roll-up source (and thus the float summation
        order of ``v``/``f``) never depends on cache-population timing
        under parallel layer fan-out.
        """
        if not self._bases:
            return None
        target = set(indices)
        best: Optional[CuboidAggregate] = None
        for base_indices, aggregate in self._bases.items():
            if target < set(base_indices):
                if best is None or len(aggregate) < len(best):
                    best = aggregate
        return best

    def _rollup(self, cuboid: Cuboid, source: CuboidAggregate) -> CuboidAggregate:
        """Aggregate *cuboid* by grouping the rows of a superset aggregate."""
        indices = cuboid.attribute_indices
        positions = [source.cuboid.attribute_indices.index(i) for i in indices]
        sizes, strides, capacity = self._geometry(indices)
        keys = source.codes[:, positions[0]] * int(strides[0])
        for stride, position in zip(strides[1:], positions[1:]):
            keys = keys + source.codes[:, position] * int(stride)
        if _trace.ACTIVE:
            obs.inc("engine_bincount_passes_total", kind="fused")
        totals = kernels.fused_bincount(
            keys,
            (
                source.support.astype(float),
                source.anomalous_support.astype(float),
                source.v_sum,
                source.f_sum,
            ),
            capacity,
        )
        occupied = np.flatnonzero(totals[:, 0])
        if len(sizes) == 1:
            codes = occupied.reshape(-1, 1)
        else:
            codes = np.stack(np.unravel_index(occupied, sizes), axis=1).astype(np.int64)
        return CuboidAggregate(
            cuboid=cuboid,
            schema=self.dataset.schema,
            codes=codes,
            support=np.rint(totals[occupied, 0]).astype(np.int64),
            anomalous_support=np.rint(totals[occupied, 1]).astype(np.int64),
            v_sum=totals[occupied, 2],
            f_sum=totals[occupied, 3],
        )

    def aggregate(self, cuboid: Cuboid) -> CuboidAggregate:
        """Cached per-cuboid aggregate (drop-in for ``dataset.aggregate``).

        Resolution order: cached aggregate -> label refresh of a warm
        shape -> roll-up from a prepared base -> fused bincount over the
        leaves.  The returned combinations, supports and anomalous
        supports are identical to the naive path; ``v``/``f`` sums are
        equal up to float summation order when a roll-up was used.  The
        warm refresh deliberately outranks the roll-up: it reproduces the
        leaf-level summation order of a cold engine, so a warm-clone
        chain (the batch execution layer's per-worker engines) returns
        bitwise-identical aggregates to a cold run.
        """
        indices = cuboid.attribute_indices
        aggregate = self._aggregates.get(indices)
        if aggregate is not None:
            if _trace.ACTIVE:
                obs.inc("engine_aggregate_total", path="cache_hit")
            return aggregate
        shape = self._shapes.get(indices)
        if shape is not None:
            # Warm path (cloned engine): occupancy and support survive a
            # label/value refresh — they depend only on the codes.  Checked
            # *before* the roll-up so a warm refresh reproduces the same
            # leaf-level summation order a cold engine's batched pass uses:
            # anomalous support is counted over the anomalous rows' keys
            # (integer-exact) and v/f come from one weighted bincount each,
            # making warm-clone aggregates bitwise equal to cold ones.
            if _trace.ACTIVE:
                obs.inc("engine_aggregate_total", path="warm_refresh")
                obs.inc("engine_bincount_passes_total", 3, kind="warm_refresh")
            dataset = self.dataset
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
                schema=dataset.schema,
                codes=shape.codes,
                support=shape.support,
                anomalous_support=anomalous.astype(np.int64, copy=False),
                v_sum=kernels.weighted_bincount(keys, dataset.v, capacity)[
                    shape.occupied
                ],
                f_sum=kernels.weighted_bincount(keys, dataset.f, capacity)[
                    shape.occupied
                ],
            )
            self._aggregates[indices] = aggregate
            return aggregate
        source = self._rollup_source(indices)
        if source is not None:
            if _trace.ACTIVE:
                obs.inc("engine_aggregate_total", path="rollup")
            aggregate = self._rollup(cuboid, source)
            __, strides, __ = self._geometry(indices)
            occupied = (aggregate.codes * strides).sum(axis=1)
            self._shapes[indices] = _CuboidShape(
                occupied=occupied, support=aggregate.support, codes=aggregate.codes
            )
            self._aggregates[indices] = aggregate
            return aggregate
        if _trace.ACTIVE:
            obs.inc("engine_aggregate_total", path="cold")
        self._aggregate_batch([cuboid])
        return self._aggregates[indices]

    def aggregate_with_labels(
        self, cuboid: Cuboid, labels: np.ndarray
    ) -> CuboidAggregate:
        """The cuboid aggregate under an alternative label vector.

        Support, occupancy, codes and the ``v``/``f`` sums are label
        independent and come from the shared cache; only the anomalous
        support is recomputed (one bincount over the cached keys).  This
        is what lets Squeeze score many deviation clusters against one
        set of cached aggregates.
        """
        base = self.aggregate(cuboid)
        keys, capacity = self.linear_keys(cuboid)
        shape = self._shapes[cuboid.attribute_indices]
        if _trace.ACTIVE:
            obs.inc("engine_bincount_passes_total", kind="relabel")
        anomalous = kernels.weighted_bincount(
            keys, np.asarray(labels, dtype=float), capacity
        )[shape.occupied]
        return CuboidAggregate(
            cuboid=base.cuboid,
            schema=base.schema,
            codes=base.codes,
            support=base.support,
            anomalous_support=np.rint(anomalous).astype(np.int64),
            v_sum=base.v_sum,
            f_sum=base.f_sum,
        )

    def layer_aggregates(
        self, cuboids: Sequence[Cuboid], n_jobs: Optional[int] = None
    ) -> Iterator[CuboidAggregate]:
        """Aggregates of one layer's cuboids, batch-fused and optionally threaded.

        Uncached cuboids with no roll-up source are aggregated together in
        chunked fused-bincount passes (see :meth:`_aggregate_batch`); with
        ``n_jobs > 1`` the chunks run across a thread pool (``bincount``
        releases no GIL but the array setup does, and chunks are
        independent).  Results are yielded in input order and identical
        for any worker count.
        """
        jobs = self.n_jobs if n_jobs is None else n_jobs
        if jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        cold = [
            cuboid
            for cuboid in cuboids
            if cuboid.attribute_indices not in self._aggregates
            and cuboid.attribute_indices not in self._shapes
            and self._rollup_source(cuboid.attribute_indices) is None
        ]
        if cold:
            per_chunk = max(1, _MAX_BATCH_ELEMENTS // max(1, self.dataset.n_rows))
            if jobs > 1:
                per_chunk = max(1, min(per_chunk, -(-len(cold) // jobs)))
            chunks = [cold[i : i + per_chunk] for i in range(0, len(cold), per_chunk)]
            if _trace.ACTIVE:
                obs.inc("engine_layer_chunks_total", len(chunks))
            if jobs == 1 or len(chunks) == 1:
                for chunk in chunks:
                    self._aggregate_batch(chunk)
            else:
                if _trace.ACTIVE:
                    obs.inc(
                        "engine_layer_parallel_chunks_total",
                        len(chunks),
                        workers=str(min(jobs, len(chunks))),
                    )
                with ThreadPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
                    list(pool.map(self._aggregate_batch, chunks))
        return iter([self.aggregate(cuboid) for cuboid in cuboids])

    def layer_scan(
        self,
        cuboids: Sequence[Cuboid],
        t_conf: float,
        n_jobs: Optional[int] = None,
    ):
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
                obs.inc("engine_layer_scan_memo_hits_total")
            return memo
        entry = self._layer_confidences.get(key)
        if entry is None:
            aggregates = list(self.layer_aggregates(cuboids, n_jobs))
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
            if _trace.ACTIVE:
                obs.inc("engine_postings_built_total")
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
        combination for the incremental miner's repeated verifications.
        """
        encoded = self.dataset.encode_combination(combination)
        return self._rows_of_encoded(tuple(int(code) for code in encoded))

    def _rows_of_encoded(self, encoded: Tuple[int, ...]) -> np.ndarray:
        cached = self._rows.get(encoded)
        if _trace.ACTIVE:
            obs.inc(
                "engine_rows_cache_total",
                outcome="hit" if cached is not None else "miss",
            )
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
        the code -> name -> code round trip.  Membership is one equality
        scan over the cuboid's cached linear keys: the search's coverage
        loop only touches the few groups that become candidates, so a
        direct scan beats materializing posting lists for every attribute
        the search visits.  Results land in the same row cache that
        :meth:`rows_of` reads.
        """
        indices = aggregate.cuboid.attribute_indices
        codes_row = aggregate.codes[index]
        encoded = [-1] * len(self._sizes)
        for position, attr_index in enumerate(indices):
            encoded[attr_index] = int(codes_row[position])
        key = tuple(encoded)
        cached = self._rows.get(key)
        if _trace.ACTIVE:
            obs.inc(
                "engine_rows_cache_total",
                outcome="hit" if cached is not None else "miss",
            )
        if cached is not None:
            return cached
        __, strides, __ = self._geometry(indices)
        target = 0
        for position, stride in enumerate(strides):
            target += int(codes_row[position]) * stride
        rows = np.flatnonzero(self._keys_for(indices) == target)
        self._rows[key] = rows
        return rows

    def support_count(self, combination: AttributeCombination) -> int:
        """``support_count_D(ac)`` via the inverted index."""
        return int(self.rows_of(combination).size)

    def anomalous_count(self, combination: AttributeCombination) -> int:
        """``support_count_D(ac, Anomaly)`` via the inverted index."""
        rows = self.rows_of(combination)
        return int(self.dataset.labels[rows].sum())

    def confidence(self, combination: AttributeCombination) -> float:
        """Criteria 2 confidence via the inverted index (0.0 on empty support)."""
        rows = self.rows_of(combination)
        if rows.size == 0:
            return 0.0
        return float(self.dataset.labels[rows].sum()) / rows.size

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
        if _trace.ACTIVE:
            obs.inc("engine_warm_clones_total")
        clone = AggregationEngine(dataset, n_jobs=self.n_jobs)
        clone._geometries = self._geometries
        clone._keys = self._keys
        clone._postings = self._postings
        clone._shapes = dict(self._shapes)
        clone._rows = self._rows
        return install_engine(clone)


class NaiveAggregationEngine(AggregationEngine):
    """Reference adapter reproducing the pre-engine cost profile.

    Every call re-derives its answer from the full leaf table through the
    naive :class:`FineGrainedDataset` methods — no caching, no roll-ups,
    no fused or batched passes, no posting lists.  The speedup benchmark
    runs the shared search code against this adapter to measure exactly
    what the engine buys, with bit-identical candidate sets.
    """

    def linear_keys(self, cuboid: Cuboid) -> Tuple[np.ndarray, int]:
        capacity = 1
        for index in cuboid.attribute_indices:
            capacity *= self.dataset.schema.size(index)
        return self.dataset.linear_keys(cuboid), capacity

    def prepare(self, attribute_indices: Sequence[int]) -> Optional[CuboidAggregate]:
        return None

    def aggregate(self, cuboid: Cuboid) -> CuboidAggregate:
        return self.dataset.aggregate(cuboid)

    def aggregate_with_labels(
        self, cuboid: Cuboid, labels: np.ndarray
    ) -> CuboidAggregate:
        return self.dataset.with_labels(labels).aggregate(cuboid)

    def layer_aggregates(
        self, cuboids: Sequence[Cuboid], n_jobs: Optional[int] = None
    ) -> Iterator[CuboidAggregate]:
        return (self.aggregate(cuboid) for cuboid in cuboids)

    def layer_scan(
        self,
        cuboids: Sequence[Cuboid],
        t_conf: float,
        n_jobs: Optional[int] = None,
    ):
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

    def confidence(self, combination: AttributeCombination) -> float:
        return self.dataset.confidence(combination)

    def warm_clone(self, dataset: FineGrainedDataset) -> "AggregationEngine":
        return NaiveAggregationEngine(dataset, n_jobs=self.n_jobs)


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

    def add(self, combination: AttributeCombination) -> None:
        spec = combination.specified_indices
        self.add_entry(spec, tuple(combination.values[i] for i in spec))

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

    def has_ancestor_of(self, combination: AttributeCombination) -> bool:
        """True when any stored candidate is a strict ancestor."""
        values = combination.values
        return self.has_ancestor_entry(
            frozenset(combination.specified_indices), lambda i: values[i]
        )
