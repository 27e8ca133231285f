"""The most fine-grained attribute-combination dataset (Table III of the paper).

:class:`FineGrainedDataset` holds one row per *leaf* attribute combination
(every attribute specified) with the actual KPI value ``v``, the forecast
value ``f``, and a boolean anomaly label produced by a leaf-level detector.
This is exactly the input of RAPMiner's two algorithms, and — via the
aggregation helpers implementing Fig. 4 — the input of every baseline that
needs coarse-grained ``v``/``f`` sums.

Rows are integer-coded: element strings are translated through the schema
into dense codes, so support counts, confidences, and per-cuboid group-bys
are vectorized numpy operations rather than Python scans.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.attribute import AttributeCombination, AttributeSchema
from ..core.cuboid import Cuboid

__all__ = ["FineGrainedDataset", "CuboidAggregate", "deviation"]

#: Epsilon of the paper's Eq. 4, guarding the division by ``f``.
EPSILON = 1e-9


def deviation(v: np.ndarray, f: np.ndarray, epsilon: float = EPSILON) -> np.ndarray:
    """Relative deviation ``Dev = (f - v) / (f + eps)`` (Eq. 4)."""
    v = np.asarray(v, dtype=float)
    f = np.asarray(f, dtype=float)
    return (f - v) / (f + epsilon)


class CuboidAggregate:
    """Per-combination aggregates of a cuboid, computed over the leaf table.

    Produced by :meth:`FineGrainedDataset.aggregate`.  Each index ``i``
    describes one attribute combination of the cuboid that actually occurs
    in the data: its leaf support, anomalous-leaf support, and the summed
    actual/forecast values (the additive aggregation of Fig. 4).

    The counts are always given.  The ``v``/``f`` sums are either given
    too, or computed on first read from *lanes*: a recipe the aggregation
    engine attaches (:class:`repro.core.engine.LaneSpec`) whose
    ``v_sum()``/``f_sum()`` each run one weighted bincount over the leaf
    rows.  RAPMiner's two stages read counts only, so on its hot path the
    float lanes are never computed.
    """

    def __init__(
        self,
        cuboid: Cuboid,
        schema: AttributeSchema,
        codes: np.ndarray,
        support: np.ndarray,
        anomalous_support: np.ndarray,
        v_sum: Optional[np.ndarray] = None,
        f_sum: Optional[np.ndarray] = None,
        lanes=None,
    ):
        if lanes is None and (v_sum is None or f_sum is None):
            raise ValueError("CuboidAggregate needs v_sum and f_sum, or lanes")
        self.cuboid = cuboid
        self.schema = schema
        #: shape (G, d): element codes of the cuboid's specified attributes.
        self.codes = codes
        #: shape (G,): number of leaf rows per combination.
        self.support = support
        #: shape (G,): number of anomalous leaf rows per combination.
        self.anomalous_support = anomalous_support
        #: Recipe for the lanes not given (``None`` when both were).
        self.lanes = lanes
        # Given lanes land in the instance dict, where the cached
        # properties below find them without computing anything.
        if v_sum is not None:
            self.v_sum = v_sum
        if f_sum is not None:
            self.f_sum = f_sum

    @functools.cached_property
    def v_sum(self) -> np.ndarray:
        """shape (G,): sum of actual values per combination."""
        return self.lanes.v_sum()

    @functools.cached_property
    def f_sum(self) -> np.ndarray:
        """shape (G,): sum of forecast values per combination."""
        return self.lanes.f_sum()

    def __repr__(self) -> str:
        return f"CuboidAggregate(cuboid={self.cuboid!r}, groups={len(self)})"

    def __len__(self) -> int:
        return len(self.support)

    @functools.cached_property
    def confidence(self) -> np.ndarray:
        """Anomaly confidence per combination (Criteria 2's ratio).

        Memoized: the search loop reads this once per cuboid visit and the
        ranking stage reads it again, so the division runs at most once per
        aggregate.  Aggregates are treated as immutable after construction.
        """
        return self.anomalous_support / np.maximum(self.support, 1)

    def combination(self, index: int) -> AttributeCombination:
        """Decode row *index* into an :class:`AttributeCombination`."""
        return self.schema.combination(self.cuboid.attribute_indices, self.codes[index])

    def combinations(self) -> List[AttributeCombination]:
        """Decode every row into an :class:`AttributeCombination`."""
        return [self.combination(i) for i in range(len(self))]


class FineGrainedDataset:
    """Leaf table: one row per most fine-grained attribute combination.

    Parameters
    ----------
    schema:
        The attribute schema.
    codes:
        Integer array of shape ``(n_rows, n_attributes)`` with element codes.
    v, f:
        Actual and forecast KPI values per row.
    labels:
        Boolean anomaly label per row (the output of leaf-level detection).
        May be omitted and attached later via :meth:`with_labels`.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        codes: np.ndarray,
        v: np.ndarray,
        f: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ):
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        v = np.asarray(v, dtype=float)
        f = np.asarray(f, dtype=float)
        if codes.ndim != 2 or codes.shape[1] != schema.n_attributes:
            raise ValueError(
                f"codes must have shape (n_rows, {schema.n_attributes}), got {codes.shape}"
            )
        n_rows = codes.shape[0]
        if v.shape != (n_rows,) or f.shape != (n_rows,):
            raise ValueError("v and f must be 1-D arrays matching the row count")
        for column, size in enumerate(schema.sizes):
            column_codes = codes[:, column]
            if n_rows and (column_codes.min() < 0 or column_codes.max() >= size):
                raise ValueError(f"element codes out of range in column {column}")
        if labels is None:
            labels = np.zeros(n_rows, dtype=bool)
        else:
            labels = np.asarray(labels, dtype=bool)
            if labels.shape != (n_rows,):
                raise ValueError("labels must be a 1-D bool array matching the row count")
        self.schema = schema
        self.codes = codes
        self.v = v
        self.f = f
        self.labels = labels
        self._strides = self._compute_strides(schema.sizes)

    def __getstate__(self):
        # The aggregation engine caches itself on the dataset
        # (repro.core.engine.engine_for); its derived state is cheap to
        # rebuild and must not ride along in pickles.
        state = self.__dict__.copy()
        state.pop("_repro_engine", None)
        return state

    @staticmethod
    def _compute_strides(sizes: Sequence[int]) -> np.ndarray:
        """Row-major strides so each full-code row maps to a unique linear key."""
        strides = np.ones(len(sizes), dtype=np.int64)
        for i in range(len(sizes) - 2, -1, -1):
            strides[i] = strides[i + 1] * sizes[i + 1]
        return strides

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: AttributeSchema,
        rows: Iterable[Tuple[Sequence[str], float, float]],
        labels: Optional[Sequence[bool]] = None,
    ) -> "FineGrainedDataset":
        """Build from ``(values, v, f)`` triples of element *names*."""
        code_rows: List[List[int]] = []
        v_list: List[float] = []
        f_list: List[float] = []
        for values, v, f in rows:
            if len(values) != schema.n_attributes:
                raise ValueError("row arity does not match the schema")
            code_rows.append([schema.encode(i, value) for i, value in enumerate(values)])
            v_list.append(float(v))
            f_list.append(float(f))
        codes = np.array(code_rows, dtype=np.int64).reshape(len(code_rows), schema.n_attributes)
        label_array = None if labels is None else np.asarray(labels, dtype=bool)
        return cls(schema, codes, np.array(v_list), np.array(f_list), label_array)

    @classmethod
    def full(
        cls,
        schema: AttributeSchema,
        v: np.ndarray,
        f: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> "FineGrainedDataset":
        """Build the complete cross-product leaf table in row-major leaf order."""
        n = schema.n_leaves
        grids = np.meshgrid(*[np.arange(s) for s in schema.sizes], indexing="ij")
        codes = np.stack([g.reshape(-1) for g in grids], axis=1)
        if len(v) != n or len(f) != n:
            raise ValueError(f"full dataset needs exactly {n} values")
        return cls(schema, codes, v, f, labels)

    # -- basic properties ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    def __len__(self) -> int:
        return self.n_rows

    @property
    def n_anomalous(self) -> int:
        return int(self.labels.sum())

    @property
    def anomaly_ratio(self) -> float:
        return self.n_anomalous / self.n_rows if self.n_rows else 0.0

    def with_labels(self, labels: np.ndarray) -> "FineGrainedDataset":
        """A copy of this dataset with fresh anomaly labels."""
        return FineGrainedDataset(self.schema, self.codes, self.v, self.f, labels)

    def deviation(self, epsilon: float = EPSILON) -> np.ndarray:
        """Per-row relative deviation (Eq. 4)."""
        return deviation(self.v, self.f, epsilon)

    # -- combination queries ----------------------------------------------------

    def encode_combination(self, combination: AttributeCombination) -> np.ndarray:
        """Element codes of *combination* with ``-1`` at wildcard positions."""
        self.schema.validate(combination)
        encoded = np.full(self.schema.n_attributes, -1, dtype=np.int64)
        for i, value in enumerate(combination.values):
            if value is not None:
                encoded[i] = self.schema.encode(i, value)
        return encoded

    def mask_of(self, combination: AttributeCombination) -> np.ndarray:
        """Boolean mask of the leaf rows covered by *combination*."""
        encoded = self.encode_combination(combination)
        mask = np.ones(self.n_rows, dtype=bool)
        for column, code in enumerate(encoded):
            if code >= 0:
                mask &= self.codes[:, column] == code
        return mask

    def support_count(self, combination: AttributeCombination) -> int:
        """``support_count_D(ac)``: covered leaf rows present in the data."""
        return int(self.mask_of(combination).sum())

    def anomalous_support_count(self, combination: AttributeCombination) -> int:
        """``support_count_D(ac, Anomaly)``: covered rows that are anomalous."""
        return int(self.labels[self.mask_of(combination)].sum())

    def confidence(self, combination: AttributeCombination) -> float:
        """``Confidence(ac => Anomaly)`` of Criteria 2 (0.0 on empty support)."""
        mask = self.mask_of(combination)
        support = int(mask.sum())
        if support == 0:
            return 0.0
        return float(self.labels[mask].sum()) / support

    def values_of(self, combination: AttributeCombination) -> Tuple[float, float]:
        """Aggregated ``(v, f)`` of *combination* (additive KPI, Fig. 4)."""
        mask = self.mask_of(combination)
        return float(self.v[mask].sum()), float(self.f[mask].sum())

    # -- vectorized per-cuboid aggregation ---------------------------------------

    def linear_keys(self, cuboid: Cuboid) -> np.ndarray:
        """Map each leaf row to a linear key over the cuboid's attributes.

        Every attribute index must lie in ``[0, n_attributes)`` and the
        index tuple must be strictly increasing (``Cuboid`` guarantees
        this, but duck-typed callers are validated too, since an unsorted
        tuple would silently permute the key space).
        """
        indices = list(cuboid.attribute_indices)
        if any(i < 0 or i >= self.schema.n_attributes for i in indices):
            raise IndexError("cuboid attribute index out of range for schema")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError("cuboid attribute indices must be sorted and unique")
        sizes = [self.schema.size(i) for i in indices]
        strides = self._compute_strides(sizes)
        keys = np.zeros(self.n_rows, dtype=np.int64)
        for position, attr_index in enumerate(indices):
            keys += self.codes[:, attr_index] * strides[position]
        return keys

    def aggregate(self, cuboid: Cuboid) -> CuboidAggregate:
        """Group the leaf table by *cuboid* and aggregate counts and sums.

        Only combinations that actually occur in the data are returned
        (matching the paper's ``support_count_D`` semantics: confidence is
        computed over rows present in ``D``).
        """
        indices = list(cuboid.attribute_indices)
        keys = self.linear_keys(cuboid)
        capacity = 1
        for i in indices:
            capacity *= self.schema.size(i)
        support = np.bincount(keys, minlength=capacity)
        anomalous = np.bincount(keys, weights=self.labels.astype(float), minlength=capacity)
        v_sum = np.bincount(keys, weights=self.v, minlength=capacity)
        f_sum = np.bincount(keys, weights=self.f, minlength=capacity)
        occupied = np.flatnonzero(support)
        sizes = [self.schema.size(i) for i in indices]
        codes = np.stack(np.unravel_index(occupied, sizes), axis=1)
        return CuboidAggregate(
            cuboid=cuboid,
            schema=self.schema,
            codes=codes.astype(np.int64),
            support=support[occupied].astype(np.int64),
            anomalous_support=anomalous[occupied].astype(np.int64),
            v_sum=v_sum[occupied],
            f_sum=f_sum[occupied],
        )

    # -- interchange ---------------------------------------------------------------

    def to_records(self) -> List[Tuple[Tuple[str, ...], float, float, bool]]:
        """Decode the table into ``(values, v, f, label)`` tuples (for IO)."""
        records = []
        for row in range(self.n_rows):
            values = tuple(
                self.schema.decode(i, int(self.codes[row, i]))
                for i in range(self.schema.n_attributes)
            )
            records.append((values, float(self.v[row]), float(self.f[row]), bool(self.labels[row])))
        return records

    def __repr__(self) -> str:
        return (
            f"FineGrainedDataset(rows={self.n_rows}, anomalous={self.n_anomalous}, "
            f"schema={self.schema!r})"
        )
