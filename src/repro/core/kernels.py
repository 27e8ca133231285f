"""The aggregation kernels: every counting pass over the leaf table.

CP (Eq. 1) and Anomaly Confidence read per-group support and
anomalous-support counts and nothing else, so the hot passes are
count-only: :func:`fused_batch` counts every cuboid of a layer at once,
:func:`stacked_anomalous` counts every case of a batch at once and
:func:`delta_patch` patches the anomalous counts of a streaming tick.
The ``v``/``f`` sums that the Adtributor baseline and derived KPIs read
are one :func:`weighted_bincount` per lane, run when an aggregate's lane
is first read.  The serial, stacked and streaming paths get all of
this from the six functions below, which share one contract (the
strides and offsets themselves are laid out by
:class:`~repro.core.engine.AggregationEngine` alone):

* **int64 keys.**  A cuboid's linear key is ``sum(code[a] * stride[a])``
  with row-major strides, in ``[0, capacity)``; ``np.bincount`` promotes
  narrower integer keys (``uint8`` to ``uint32``, ``int32``) itself.
* **Disjoint offsets.**  Batched passes shift each block's keys (a
  cuboid's, or a case's) by the summed capacity of the blocks before it.
* **Row-order float accumulation.**  ``np.bincount`` adds each bucket's
  weights in input order, so a lane computed over the leaf rows in
  ascending order is bitwise what a cold leaf-level pass returns.  Every
  engine's lanes rest on this: never reorder a weighted pass.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "block_keys",
    "count_bincount",
    "delta_patch",
    "fused_batch",
    "info",
    "stacked_anomalous",
    "stacked_key_dtype",
    "weighted_bincount",
]


def info() -> Dict[str, object]:
    """Identity of the kernel set, for benchmark reports."""
    return {"backend": "numpy"}


def stacked_key_dtype(n_slots: int, capacity: int) -> np.dtype:
    """Smallest integer dtype that holds ``slot * capacity + key`` safely.

    The stacked key space spans ``n_slots * capacity`` values (exact
    Python-int arithmetic, so the check itself cannot overflow).  Returns
    ``uint32`` when every key fits in 32 bits, else ``int64``; raises
    :class:`OverflowError` when even ``int64`` cannot represent the top
    key — the caller must chunk the batch instead of wrapping around.
    """
    if n_slots < 0 or capacity < 0:
        raise ValueError("n_slots and capacity must be non-negative")
    span = int(n_slots) * int(capacity)
    if span > 2**63:
        raise OverflowError(
            f"stacked key space of {n_slots} cases x {capacity} groups "
            f"({span} keys) exceeds int64; chunk the batch"
        )
    if span <= 2**32:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def block_keys(
    codes: np.ndarray, stride_matrix: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Every block's shifted linear keys, shape ``(n_blocks, n_rows)``, int64.

    Row ``j`` is ``codes @ stride_matrix[:, j] + offsets[j]``.  The rows
    are filled one block at a time over contiguous code columns, reading
    only the columns a block specifies, instead of an integer matmul plus
    a transposed copy.  Integer arithmetic, so the keys are exactly the
    matmul's.
    """
    n_blocks = stride_matrix.shape[1]
    keys = np.empty((n_blocks, codes.shape[0]), dtype=np.int64)
    columns = np.ascontiguousarray(codes.T, dtype=np.int64)
    for row, strides, offset in zip(keys, stride_matrix.T.tolist(), offsets.tolist()):
        row.fill(offset)
        for column, stride in zip(columns, strides):
            if stride == 1:
                row += column
            elif stride:
                row += column * stride
    return keys


def fused_batch(
    codes: np.ndarray,
    stride_matrix: np.ndarray,
    offsets: np.ndarray,
    total: int,
    label_rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ``(support, anomalous)`` counts of one batched pass.

    ``stride_matrix`` is ``(n_attrs, n_blocks)`` with column ``j``
    holding cuboid ``j``'s strides; ``offsets`` shifts each cuboid's
    key range to be disjoint; ``total`` is the summed capacity.
    """
    keys = block_keys(codes, stride_matrix, offsets)
    support = np.bincount(keys.ravel(), minlength=total)
    if label_rows.size:
        anomalous = np.bincount(keys[:, label_rows].ravel(), minlength=total)
    else:
        anomalous = np.zeros(total, dtype=np.int64)
    return support, anomalous


def count_bincount(keys: np.ndarray, minlength: int) -> np.ndarray:
    """Integer bincount (int64) over keys known to be ``< minlength``."""
    return np.bincount(keys, minlength=minlength)


def weighted_bincount(
    keys: np.ndarray, weights: np.ndarray, minlength: int
) -> np.ndarray:
    """Weighted bincount (float64) in ascending-row accumulation order."""
    out = np.bincount(keys, weights=weights, minlength=minlength)
    # np.bincount returns int64 when keys are empty; the op's contract
    # is float64 regardless of input shape (no-op copy when already so).
    return out.astype(np.float64, copy=False)


def stacked_anomalous(
    key_columns: Sequence[np.ndarray],
    offsets: Sequence[int],
    total_capacity: int,
    rows_cat: np.ndarray,
    lengths: Sequence[int],
) -> np.ndarray:
    """Dense ``(n_cases, total_capacity)`` anomalous counts of one chunk.

    ``rows_cat`` concatenates each case's anomalous-row indices
    (``lengths[c]`` of them per case); keys are shifted by
    ``case * total_capacity + offsets[cuboid]`` so one bincount
    yields every (case, cuboid, group) count.
    """
    n_cases = len(lengths)
    dtype = stacked_key_dtype(n_cases, total_capacity)
    case_base = np.repeat(
        np.arange(n_cases, dtype=np.int64) * total_capacity, lengths
    )
    key_matrix = np.empty((len(key_columns), rows_cat.size), dtype=np.int64)
    for j, keys in enumerate(key_columns):
        np.add(keys[rows_cat], case_base + offsets[j], out=key_matrix[j])
    return np.bincount(
        key_matrix.ravel().astype(dtype, copy=False),
        minlength=n_cases * total_capacity,
    ).reshape(n_cases, total_capacity)


def delta_patch(
    codes: np.ndarray,
    stride_matrix: np.ndarray,
    offsets: np.ndarray,
    total: int,
    gained: np.ndarray,
    lost: np.ndarray,
) -> np.ndarray:
    """Dense anomalous-count delta (int64) of one streaming patch.

    ``codes`` holds the changed rows; ``gained`` and ``lost`` are
    boolean masks over them marking the rows whose label turned
    anomalous and normal.  Only label flips move a count, so a tick
    without any needs no call at all.
    """
    gain = block_keys(codes[gained], stride_matrix, offsets).ravel()
    loss = block_keys(codes[lost], stride_matrix, offsets).ravel()
    return np.bincount(gain, minlength=total) - np.bincount(loss, minlength=total)
