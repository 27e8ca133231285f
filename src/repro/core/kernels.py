"""The aggregation kernels: every counting pass over the leaf table.

CP (Eq. 1) and Anomaly Confidence are per-group support and
anomalous-support counts, and the ranking adds ``v``/``f`` sums.  The
serial, stacked and streaming engines get all of them from the seven
functions below, which share one contract:

* **int64 keys.**  A cuboid's linear key is ``sum(code[a] * stride[a])``
  with row-major strides, in ``[0, capacity)``; ``np.bincount`` promotes
  narrower integer keys (``uint8`` to ``uint32``, ``int32``) itself.
* **Disjoint offsets.**  Batched passes shift each block's keys (a
  cuboid's, or a case's) by the summed capacity of the blocks before it.
* **Row-order float accumulation.**  ``np.bincount`` adds each bucket's
  weights in input order and blocks are laid out one after another in
  leaf-row order, so a batched float lane is bitwise equal to a bincount
  of its block alone.  The stacked and streaming paths' bit-identity to
  the serial engine rests on this: never reorder a weighted pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "count_bincount",
    "delta_patch",
    "fused_batch",
    "fused_bincount",
    "info",
    "stacked_anomalous",
    "stacked_key_dtype",
    "stacked_weighted",
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


def fused_batch(
    codes: np.ndarray,
    stride_matrix: np.ndarray,
    offsets: np.ndarray,
    total: int,
    label_rows: np.ndarray,
    v: np.ndarray,
    f: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``(support, anomalous, v_sum, f_sum)`` of one batched pass.

    ``stride_matrix`` is ``(n_attrs, n_blocks)`` with column ``j``
    holding cuboid ``j``'s strides; ``offsets`` shifts each cuboid's
    key range to be disjoint; ``total`` is the summed capacity.
    """
    n_blocks = stride_matrix.shape[1]
    combined = (codes @ stride_matrix + offsets).T.ravel()
    support = np.bincount(combined, minlength=total)
    if label_rows.size:
        anomalous_keys = (
            combined[label_rows]
            if n_blocks == 1
            else combined.reshape(n_blocks, -1)[:, label_rows].ravel()
        )
        anomalous = np.bincount(anomalous_keys, minlength=total)
    else:
        anomalous = np.zeros(total, dtype=np.int64)
    v_tiled = v if n_blocks == 1 else np.tile(v, n_blocks)
    f_tiled = f if n_blocks == 1 else np.tile(f, n_blocks)
    v_sum = np.bincount(combined, weights=v_tiled, minlength=total)
    f_sum = np.bincount(combined, weights=f_tiled, minlength=total)
    return support, anomalous, v_sum, f_sum


def fused_bincount(
    keys: np.ndarray,
    weight_columns: Sequence[np.ndarray],
    capacity: int,
) -> np.ndarray:
    """Stacked-weights bincount, shape ``(capacity, lanes)``.

    Lane ``i`` of row ``k`` is ``sum(weight_columns[i][keys == k])``
    with per-bucket additions in ascending row order.
    """
    lanes = len(weight_columns)
    if lanes == 1:
        return np.bincount(
            keys, weights=weight_columns[0], minlength=capacity
        ).reshape(capacity, 1)
    fused_keys = (keys[:, None] * lanes + np.arange(lanes)).ravel()
    fused_weights = np.stack(weight_columns, axis=1).ravel()
    totals = np.bincount(
        fused_keys, weights=fused_weights, minlength=capacity * lanes
    )
    return totals.reshape(capacity, lanes)


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


def stacked_weighted(
    keys: np.ndarray,
    capacity: int,
    lanes: Sequence[Sequence[np.ndarray]],
) -> List[np.ndarray]:
    """Per-lane ``(n_cases, capacity)`` weighted sums, case-major.

    ``lanes`` holds one sequence of per-case weight columns per lane
    (e.g. ``[v_rows, f_rows]``); concatenation is case-major in
    leaf-row order, replaying a cold per-case engine's float order.
    """
    n_cases = len(lanes[0])
    stacked_key_dtype(n_cases, capacity)  # overflow guard
    stacked_keys = (
        keys[None, :]
        + (np.arange(n_cases, dtype=np.int64) * capacity)[:, None]
    ).ravel()
    minlength = n_cases * capacity
    return [
        np.bincount(
            stacked_keys,
            weights=np.concatenate(list(weight_rows)),
            minlength=minlength,
        ).reshape(n_cases, capacity)
        for weight_rows in lanes
    ]


def delta_patch(
    codes: np.ndarray,
    stride_matrix: np.ndarray,
    offsets: np.ndarray,
    total: int,
    gained: np.ndarray,
    lost: np.ndarray,
    v_delta: np.ndarray,
    f_delta: np.ndarray,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Dense deltas of one streaming patch over the changed rows only.

    Returns ``(anomalous_delta | None, v_dense, f_dense)``;
    ``anomalous_delta`` is ``None`` when no label flipped.
    """
    n_blocks = stride_matrix.shape[1]
    combined = codes @ stride_matrix + offsets
    flat = combined.T.ravel()
    anomalous_delta: Optional[np.ndarray] = None
    if gained.any() or lost.any():
        anomalous_delta = np.zeros(total, dtype=np.int64)
        if gained.any():
            anomalous_delta += np.bincount(
                combined[gained].T.ravel(), minlength=total
            )
        if lost.any():
            anomalous_delta -= np.bincount(
                combined[lost].T.ravel(), minlength=total
            )
    v_tiled = v_delta if n_blocks == 1 else np.tile(v_delta, n_blocks)
    f_tiled = f_delta if n_blocks == 1 else np.tile(f_delta, n_blocks)
    v_dense = np.bincount(flat, weights=v_tiled, minlength=total)
    f_dense = np.bincount(flat, weights=f_tiled, minlength=total)
    return anomalous_delta, v_dense, f_dense
