"""Kernel backend registry: compiled-C vs numpy for the aggregation trio.

Every hot aggregation pass of the engine family goes through one of two
interchangeable backends:

* :class:`NumpyBackend` — the reference implementation; verbatim the
  vectorized numpy formulations the engines used before the native
  backend existed (key matmul + ``np.bincount`` lanes).
* :class:`NativeBackend` — thin ctypes wrappers over the compiled
  kernels of ``kernels.c``, loaded through :mod:`repro.native.build`.
  Integer lanes are exact and float lanes accumulate in the same row
  order as ``np.bincount``, so results are **bitwise identical** to the
  numpy backend (enforced by ``tests/native/test_equivalence.py``).

Selection precedence (first match wins):

1. an explicit ``backend=`` argument / ``RAPMinerConfig.backend`` knob;
2. the ``RAPMINER_BACKEND`` environment variable;
3. ``auto``: native when a compiler (or cached library) is available,
   else numpy.

A native request that cannot be satisfied — no compiler, failed
compile, corrupt cache that will not rebuild — **never raises**: the
registry emits a single :class:`RuntimeWarning` per process, bumps
``engine_backend_fallback_total{reason}`` and records the event in
:data:`FALLBACK_EVENTS` once per requested name, and hands back the
numpy backend.  The registry resolves under one lock, so concurrent
first resolutions load the library once.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..obs import trace as _trace
from .build import NativeBuildError, load_library

__all__ = [
    "BACKEND_NAMES",
    "FALLBACK_EVENTS",
    "KernelBackend",
    "NativeBackend",
    "NumpyBackend",
    "backend_info",
    "coerce_backend",
    "get_default_backend",
    "resolve_backend",
    "set_default_backend",
]

#: Valid values for ``backend=`` knobs and ``RAPMINER_BACKEND``.
BACKEND_NAMES: Tuple[str, ...] = ("auto", "numpy", "native")

#: ``(requested, reason)`` of each native->numpy fallback this process
#: took, one entry per requested name (at most one warning is issued).
FALLBACK_EVENTS: List[Tuple[str, str]] = []


def _stacked_key_dtype(n_slots: int, capacity: int) -> np.dtype:
    # Local mirror of repro.core.stacked.stacked_key_dtype (importing it
    # would cycle core -> native -> core); the overflow contract is
    # asserted equal in tests/native/test_backend.py.
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


class KernelBackend:
    """Interface of one aggregation-kernel implementation.

    All methods share the geometry conventions of
    :meth:`repro.core.engine.AggregationEngine._aggregate_batch`: keys
    are int64, dense key spaces are disjoint per block/case after
    offsetting, and float accumulation order is ascending row order
    within each block (the ``np.bincount`` order).
    """

    name = "abstract"

    def info(self) -> Dict[str, object]:
        """Identity of this backend for gauges and benchmark reports."""
        return {"backend": self.name}

    # Each op documents its contract on the numpy implementation below.

    def fused_batch(self, codes, stride_matrix, offsets, total, label_rows, v, f):
        raise NotImplementedError

    def fused_bincount(self, keys, weight_columns, capacity):
        raise NotImplementedError

    def count_bincount(self, keys, minlength):
        raise NotImplementedError

    def weighted_bincount(self, keys, weights, minlength):
        raise NotImplementedError

    def stacked_anomalous(self, key_columns, offsets, total_capacity, rows_cat, lengths):
        raise NotImplementedError

    def stacked_weighted(self, keys, capacity, lanes):
        raise NotImplementedError

    def delta_patch(self, codes, stride_matrix, offsets, total, gained, lost, v_delta, f_delta):
        raise NotImplementedError


class NumpyBackend(KernelBackend):
    """Reference backend: the engines' original vectorized formulations."""

    name = "numpy"

    def fused_batch(
        self,
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
        self,
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

    def count_bincount(self, keys: np.ndarray, minlength: int) -> np.ndarray:
        """Integer bincount (int64) over keys known to be ``< minlength``."""
        return np.bincount(keys, minlength=minlength)

    def weighted_bincount(
        self, keys: np.ndarray, weights: np.ndarray, minlength: int
    ) -> np.ndarray:
        """Weighted bincount (float64) in ascending-row accumulation order."""
        out = np.bincount(keys, weights=weights, minlength=minlength)
        # np.bincount returns int64 when keys are empty; the op's contract
        # is float64 regardless of input shape (no-op copy when already so).
        return out.astype(np.float64, copy=False)

    def stacked_anomalous(
        self,
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
        dtype = _stacked_key_dtype(n_cases, total_capacity)
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
        self,
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
        _stacked_key_dtype(n_cases, capacity)  # overflow guard
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
        self,
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


def _contig_i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _contig_f64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


class NativeBackend(KernelBackend):
    """ctypes wrappers over the compiled kernels (bit-identical to numpy)."""

    name = "native"

    def __init__(self, library, build_info: Dict[str, object]):
        import ctypes

        self._ctypes = ctypes
        self._lib = library
        self._build_info = dict(build_info)

    def info(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"backend": self.name}
        payload.update(self._build_info)
        return payload

    # -- call plumbing -----------------------------------------------------

    def _ptr(self, array: np.ndarray):
        return self._ctypes.c_void_p(array.ctypes.data)

    def _i64(self, value: int):
        return self._ctypes.c_int64(int(value))

    def _call(self, kernel: str, *args) -> None:
        if _trace.ACTIVE:
            obs.inc("native_kernel_calls_total", kernel=kernel[len("rapminer_"):])
        status = getattr(self._lib, kernel)(*args)
        if status != 0:
            raise RuntimeError(
                f"native kernel {kernel} failed with status {status} "
                "(key out of dense range or allocation failure)"
            )

    def _pointer_array(self, arrays: Sequence[np.ndarray]):
        ctypes = self._ctypes
        holder = (ctypes.c_void_p * len(arrays))(
            *[array.ctypes.data for array in arrays]
        )
        return holder

    # -- kernels -----------------------------------------------------------

    def fused_batch(self, codes, stride_matrix, offsets, total, label_rows, v, f):
        codes = _contig_i64(codes)
        stride_matrix = _contig_i64(stride_matrix)
        offsets = _contig_i64(offsets)
        label_rows = _contig_i64(label_rows)
        v = _contig_f64(v)
        f = _contig_f64(f)
        n_rows, n_attrs = codes.shape
        support = np.zeros(total, dtype=np.int64)
        anomalous = np.zeros(total, dtype=np.int64)
        v_sum = np.zeros(total, dtype=np.float64)
        f_sum = np.zeros(total, dtype=np.float64)
        self._call(
            "rapminer_fused_batch",
            self._ptr(codes),
            self._i64(n_rows),
            self._i64(n_attrs),
            self._ptr(stride_matrix),
            self._ptr(offsets),
            self._i64(stride_matrix.shape[1]),
            self._i64(total),
            self._ptr(label_rows),
            self._i64(label_rows.size),
            self._ptr(v),
            self._ptr(f),
            self._ptr(support),
            self._ptr(anomalous),
            self._ptr(v_sum),
            self._ptr(f_sum),
        )
        return support, anomalous, v_sum, f_sum

    def fused_bincount(self, keys, weight_columns, capacity):
        keys = _contig_i64(keys)
        weights = _contig_f64(np.stack([np.asarray(c) for c in weight_columns]))
        lanes = weights.shape[0]
        out = np.zeros((capacity, lanes), dtype=np.float64)
        self._call(
            "rapminer_fused_bincount",
            self._ptr(keys),
            self._i64(keys.size),
            self._ptr(weights),
            self._i64(lanes),
            self._i64(capacity),
            self._ptr(out),
        )
        return out

    def count_bincount(self, keys, minlength):
        keys = _contig_i64(keys)
        out = np.zeros(minlength, dtype=np.int64)
        self._call(
            "rapminer_count_bincount",
            self._ptr(keys),
            self._i64(keys.size),
            self._i64(minlength),
            self._ptr(out),
        )
        return out

    def weighted_bincount(self, keys, weights, minlength):
        keys = _contig_i64(keys)
        weights = _contig_f64(weights)
        out = np.zeros(minlength, dtype=np.float64)
        self._call(
            "rapminer_weighted_bincount",
            self._ptr(keys),
            self._i64(keys.size),
            self._ptr(weights),
            self._i64(minlength),
            self._ptr(out),
        )
        return out

    def stacked_anomalous(self, key_columns, offsets, total_capacity, rows_cat, lengths):
        _stacked_key_dtype(len(lengths), total_capacity)  # overflow guard
        key_columns = [_contig_i64(keys) for keys in key_columns]
        offsets_arr = _contig_i64(np.asarray(offsets))
        rows_cat = _contig_i64(rows_cat)
        lengths_arr = _contig_i64(np.asarray(lengths))
        out = np.zeros((len(lengths), total_capacity), dtype=np.int64)
        self._call(
            "rapminer_stacked_anomalous",
            self._pointer_array(key_columns),
            self._i64(len(key_columns)),
            self._ptr(offsets_arr),
            self._i64(total_capacity),
            self._ptr(rows_cat),
            self._ptr(lengths_arr),
            self._i64(len(lengths)),
            self._ptr(out),
        )
        return out

    def stacked_weighted(self, keys, capacity, lanes):
        n_cases = len(lanes[0])
        _stacked_key_dtype(n_cases, capacity)  # overflow guard
        keys = _contig_i64(keys)
        results = []
        for weight_rows in lanes:
            rows = [_contig_f64(row) for row in weight_rows]
            out = np.zeros((n_cases, capacity), dtype=np.float64)
            self._call(
                "rapminer_stacked_weighted",
                self._ptr(keys),
                self._i64(keys.size),
                self._i64(capacity),
                self._pointer_array(rows),
                self._i64(n_cases),
                self._ptr(out),
            )
            results.append(out)
        return results

    def delta_patch(self, codes, stride_matrix, offsets, total, gained, lost, v_delta, f_delta):
        codes = _contig_i64(codes)
        stride_matrix = _contig_i64(stride_matrix)
        offsets = _contig_i64(offsets)
        gained = np.ascontiguousarray(gained, dtype=bool)
        lost = np.ascontiguousarray(lost, dtype=bool)
        v_delta = _contig_f64(v_delta)
        f_delta = _contig_f64(f_delta)
        have_labels = bool(gained.any() or lost.any())
        anomalous_delta = (
            np.zeros(total, dtype=np.int64) if have_labels else np.zeros(0, dtype=np.int64)
        )
        v_dense = np.zeros(total, dtype=np.float64)
        f_dense = np.zeros(total, dtype=np.float64)
        n_rows = codes.shape[0]
        self._call(
            "rapminer_delta_patch",
            self._ptr(codes),
            self._i64(n_rows),
            self._i64(codes.shape[1] if codes.ndim == 2 else 0),
            self._ptr(stride_matrix),
            self._ptr(offsets),
            self._i64(stride_matrix.shape[1]),
            self._i64(total),
            self._ptr(gained.view(np.uint8)),
            self._ptr(lost.view(np.uint8)),
            self._i64(1 if have_labels else 0),
            self._ptr(v_delta),
            self._ptr(f_delta),
            self._ptr(anomalous_delta),
            self._ptr(v_dense),
            self._ptr(f_dense),
        )
        return (anomalous_delta if have_labels else None), v_dense, f_dense


# -- registry ---------------------------------------------------------------

_NUMPY = NumpyBackend()
_native_backend: Optional[NativeBackend] = None
_native_error: Optional[NativeBuildError] = None
_default_backend: Optional[KernelBackend] = None
_fallback_warned = False
#: Guards every registry global above (re-entrant: the default backend
#: resolves through :func:`resolve_backend`).
_REGISTRY_LOCK = threading.RLock()


def _load_native() -> NativeBackend:
    """Load (or reuse) the native backend; raises :class:`NativeBuildError`.

    Callers hold ``_REGISTRY_LOCK``.
    """
    global _native_backend, _native_error
    if _native_backend is not None:
        return _native_backend
    if _native_error is not None:
        raise _native_error
    try:
        library, info = load_library()
    except NativeBuildError as exc:
        _native_error = exc
        raise
    _native_backend = NativeBackend(library, info)
    if _trace.ACTIVE:
        obs.set_gauge(
            "engine_backend_compile_seconds", float(info["compile_seconds"])
        )
    return _native_backend


def _note_fallback(requested: str, error: NativeBuildError) -> None:
    """Record a failed resolution of *requested*, once per name."""
    global _fallback_warned
    if any(name == requested for name, __ in FALLBACK_EVENTS):
        return
    reason = getattr(error, "reason", None) or "build_failed"
    FALLBACK_EVENTS.append((requested, reason))
    obs.inc("engine_backend_fallback_total", reason=reason)
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            f"native kernel backend unavailable ({error}); "
            "falling back to the numpy backend "
            "(set RAPMINER_BACKEND=numpy to silence)",
            RuntimeWarning,
            stacklevel=3,
        )


def _normalize(spec: Optional[str]) -> str:
    if spec is None:
        spec = os.environ.get("RAPMINER_BACKEND") or "auto"
    name = str(spec).strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {spec!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def resolve_backend(
    spec: Optional[str] = None, strict: bool = False
) -> KernelBackend:
    """The backend for *spec* (``None`` -> ``RAPMINER_BACKEND`` -> ``auto``).

    ``auto`` and ``native`` both try the compiled backend first and fall
    back to numpy (warning + counter) when it cannot be built; with
    ``strict=True`` the :class:`~repro.native.build.NativeBuildError`
    propagates instead — used by tooling that must not silently degrade
    (e.g. ``make bench-native``).
    """
    name = _normalize(spec)
    if name == "numpy":
        return _NUMPY
    loaded = _native_backend
    if loaded is not None:
        return loaded
    with _REGISTRY_LOCK:
        try:
            return _load_native()
        except NativeBuildError as error:
            if strict:
                raise
            _note_fallback(name, error)
            return _NUMPY


def get_default_backend() -> KernelBackend:
    """The process-default backend, resolved once on first use."""
    global _default_backend
    backend = _default_backend
    if backend is not None:
        return backend
    with _REGISTRY_LOCK:
        if _default_backend is None:
            _default_backend = resolve_backend(None)
        return _default_backend


def set_default_backend(spec: Optional[str]) -> KernelBackend:
    """Pin the process-default backend (``None`` re-reads the environment)."""
    global _default_backend
    with _REGISTRY_LOCK:
        _default_backend = resolve_backend(spec)
        return _default_backend


def coerce_backend(
    spec: Union[None, str, KernelBackend]
) -> KernelBackend:
    """Backend from a knob value: instance as-is, name resolved, None -> default."""
    if spec is None:
        return get_default_backend()
    if isinstance(spec, KernelBackend):
        return spec
    return resolve_backend(spec)


def backend_info(backend: Optional[KernelBackend] = None) -> Dict[str, object]:
    """Identity dict of *backend* (default: the process default)."""
    return (backend or get_default_backend()).info()


def _reset_registry_for_tests() -> None:
    """Forget every cached resolution (tests monkeypatching the loader)."""
    global _native_backend, _native_error, _default_backend, _fallback_warned
    with _REGISTRY_LOCK:
        _native_backend = None
        _native_error = None
        _default_backend = None
        _fallback_warned = False
        FALLBACK_EVENTS.clear()
