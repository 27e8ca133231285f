"""Serialization of schemas, leaf tables, and localization cases.

Two interchange formats are provided:

* **CSV** for the leaf table itself — one column per attribute plus
  ``v``, ``f``, ``label`` — matching the layout of Table III and of the
  published Squeeze dataset's per-timestamp CSV files, so externally
  produced data can be dropped in.
* **JSON** for full :class:`~repro.data.injection.LocalizationCase` bundles
  (schema + leaf table + ground-truth RAPs + metadata), used to persist
  generated benchmarks so experiment runs are replayable byte-for-byte,
  and as the ``case`` object of every serving request.  Each leaf-table
  column (``codes``, ``v``, ``f``, ``labels``) is written *packed*: an
  object ``{"dtype": ..., "b64": ...}`` holding the base64 of the
  column's raw little-endian buffer — ``<f8`` for ``v``/``f`` (bit-exact,
  NaN payloads and ``-0.0`` included), ``|u1`` holding 0/1 for
  ``labels``, and for ``codes`` (row-major, ``n_rows x n_attributes``)
  the narrowest of ``|u1``/``<u2``/``<u4`` that holds the schema's
  largest attribute.  :func:`case_from_dict` also accepts each column as
  a plain JSON number list (the older form, and the one hand-written
  request bodies use), and rejects a packed column whose dtype, byte
  length or label values disagree with the schema and row count.
* **NPZ** for the same bundles in binary form: the four leaf-table arrays
  are stored as raw numpy buffers (no ``tolist()`` round-trip, no float
  re-parsing) with the non-array fields in an embedded JSON header.  JSON
  stays the interchange format; ``.npz`` is the fast path for large
  bundles and the batch execution layer's replay inputs.
  :func:`save_cases` / :func:`load_cases` pick the format by suffix.
"""

from __future__ import annotations

import base64
import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.attribute import AttributeCombination, AttributeSchema
from .dataset import FineGrainedDataset
from .injection import LocalizationCase

__all__ = [
    "dataset_to_csv",
    "dataset_from_csv",
    "schema_to_dict",
    "schema_from_dict",
    "case_to_dict",
    "case_from_dict",
    "save_cases",
    "load_cases",
    "save_cases_npz",
    "load_cases_npz",
    "write_cases_npz",
    "read_cases_npz",
    "cases_to_npz_bytes",
    "cases_from_npz_bytes",
]

PathLike = Union[str, Path]


def schema_to_dict(schema: AttributeSchema) -> Dict:
    """JSON-ready representation of a schema."""
    return {name: list(schema.elements(name)) for name in schema.names}


def schema_from_dict(data: Dict) -> AttributeSchema:
    """Inverse of :func:`schema_to_dict`."""
    return AttributeSchema({name: list(elements) for name, elements in data.items()})


def dataset_to_csv(dataset: FineGrainedDataset, path: PathLike) -> None:
    """Write a leaf table as CSV with attribute columns plus ``v,f,label``."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.schema.names) + ["v", "f", "label"])
        for values, v, f, label in dataset.to_records():
            writer.writerow(list(values) + [repr(v), repr(f), int(label)])


def dataset_from_csv(path: PathLike, schema: AttributeSchema) -> FineGrainedDataset:
    """Read a leaf table written by :func:`dataset_to_csv` (or compatible)."""
    path = Path(path)
    rows = []
    labels = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty")
        expected = list(schema.names) + ["v", "f", "label"]
        if header != expected:
            raise ValueError(f"{path} header {header} does not match schema columns {expected}")
        n_attrs = schema.n_attributes
        for line in reader:
            if not line:
                continue
            values = tuple(line[:n_attrs])
            rows.append((values, float(line[n_attrs]), float(line[n_attrs + 1])))
            labels.append(bool(int(line[n_attrs + 2])))
    return FineGrainedDataset.from_rows(schema, rows, labels)


#: Packed dtype of the ``v`` and ``f`` columns.
_VALUE_DTYPE = "<f8"
#: Packed dtype of the ``labels`` column (values 0 and 1 only).
_LABEL_DTYPE = "|u1"
#: Candidate packed dtypes of the ``codes`` column, narrowest first.
_CODE_DTYPES = ("|u1", "<u2", "<u4")


def _code_dtype(schema: AttributeSchema) -> str:
    """The narrowest packed ``codes`` dtype holding every code of *schema*."""
    largest = max(schema.sizes) - 1
    return next(dtype for dtype in _CODE_DTYPES if largest <= np.iinfo(dtype).max)


def _pack(array: np.ndarray, dtype: str) -> Dict[str, str]:
    raw = np.ascontiguousarray(array, dtype=dtype).tobytes()
    return {"dtype": dtype, "b64": base64.b64encode(raw).decode("ascii")}


def _unpack(
    data: Dict, key: str, dtype: str, native, per_row: int, n_rows: Optional[int]
) -> np.ndarray:
    """Column *key* of a case dict as an owned array of dtype *native*.

    A column that is a JSON object is packed: it must carry exactly
    ``dtype`` and ``b64``, the dtype the schema calls for, and
    ``per_row`` items per row — ``n_rows`` rows when that is already
    known.  Any other column is the list form.
    """
    column = data[key]
    if not isinstance(column, dict):
        return np.asarray(column, dtype=native)
    if set(column) != {"dtype", "b64"}:
        raise ValueError(
            f"packed column {key!r} needs exactly the keys 'b64' and 'dtype', "
            f"got {sorted(column)}"
        )
    if column["dtype"] != dtype:
        raise ValueError(
            f"packed column {key!r} has dtype {column['dtype']!r}; "
            f"this schema needs {dtype!r}"
        )
    if not isinstance(column["b64"], str):
        raise ValueError(f"packed column {key!r}: 'b64' must be a string")
    try:
        raw = base64.b64decode(column["b64"], validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ValueError(f"packed column {key!r} is not base64: {exc}") from None
    row_bytes = per_row * np.dtype(dtype).itemsize
    rows, rest = divmod(len(raw), row_bytes)
    if rest or (n_rows is not None and rows != n_rows):
        wanted = "a whole number of" if n_rows is None else n_rows
        raise ValueError(
            f"packed column {key!r} holds {len(raw)} bytes, "
            f"not {wanted} rows of {row_bytes} bytes"
        )
    values = np.frombuffer(raw, dtype=dtype)
    if key == "labels" and values.size and values.max() > 1:
        raise ValueError(f"packed column {key!r} holds a value other than 0 or 1")
    # astype copies: the dataset owns its buffer and the request bytes can go.
    return values.astype(native)


def case_to_dict(case: LocalizationCase) -> Dict:
    """JSON-ready representation of a localization case (packed columns)."""
    dataset = case.dataset
    return {
        "case_id": case.case_id,
        "schema": schema_to_dict(dataset.schema),
        "codes": _pack(dataset.codes, _code_dtype(dataset.schema)),
        "v": _pack(dataset.v, _VALUE_DTYPE),
        "f": _pack(dataset.f, _VALUE_DTYPE),
        "labels": _pack(dataset.labels, _LABEL_DTYPE),
        "true_raps": [str(rap) for rap in case.true_raps],
        "metadata": _jsonify(case.metadata),
    }


def case_from_dict(data: Dict) -> LocalizationCase:
    """Inverse of :func:`case_to_dict`; also reads the list-form columns.

    Raises ``ValueError`` when a packed column has the wrong dtype for
    the schema, a byte length that does not match the row count, or
    (``labels``) a value other than 0 or 1.
    """
    schema = schema_from_dict(data["schema"])
    width = schema.n_attributes
    codes = _unpack(data, "codes", _code_dtype(schema), np.int64, width, None)
    codes = codes.reshape(-1, width)
    n_rows = len(codes)
    dataset = FineGrainedDataset(
        schema,
        codes,
        _unpack(data, "v", _VALUE_DTYPE, np.float64, 1, n_rows),
        _unpack(data, "f", _VALUE_DTYPE, np.float64, 1, n_rows),
        _unpack(data, "labels", _LABEL_DTYPE, bool, 1, n_rows),
    )
    raps = tuple(AttributeCombination.parse(text) for text in data["true_raps"])
    return LocalizationCase(
        case_id=data["case_id"],
        dataset=dataset,
        true_raps=raps,
        metadata=dict(data.get("metadata", {})),
    )


def save_cases(cases: Sequence[LocalizationCase], path: PathLike) -> None:
    """Persist a case list; the suffix picks the format (``.npz`` or JSON)."""
    path = Path(path)
    if path.suffix == ".npz":
        save_cases_npz(cases, path)
        return
    payload = {"format": "repro.cases.v1", "cases": [case_to_dict(c) for c in cases]}
    with path.open("w") as handle:
        json.dump(payload, handle)


def load_cases(path: PathLike) -> List[LocalizationCase]:
    """Load a case list written by :func:`save_cases` (format by suffix)."""
    path = Path(path)
    if path.suffix == ".npz":
        return load_cases_npz(path)
    with path.open() as handle:
        payload = json.load(handle)
    if payload.get("format") != "repro.cases.v1":
        raise ValueError(f"{path} is not a repro case bundle")
    return [case_from_dict(entry) for entry in payload["cases"]]


#: Format tag embedded in the npz header; bump on layout changes.
NPZ_FORMAT = "repro.cases.npz.v1"


def save_cases_npz(cases: Sequence[LocalizationCase], path: PathLike) -> None:
    """Persist a case list as one uncompressed ``.npz`` archive.

    The leaf-table arrays (``codes``, ``v``, ``f``, ``labels``) are written
    as raw numpy buffers — dtypes and bit patterns survive exactly, unlike
    the JSON path's ``tolist()``/re-parse round trip — and everything
    non-array (schema, RAP strings, metadata) rides in a JSON header
    stored as a ``uint8`` byte array, so loading never needs
    ``allow_pickle``.
    """
    path = Path(path)
    with path.open("wb") as handle:
        write_cases_npz(cases, handle)


def write_cases_npz(cases: Sequence[LocalizationCase], handle) -> None:
    """:func:`save_cases_npz` onto an open binary file object.

    Split out so the fleet's segment log (:mod:`repro.fleet.store`) can
    embed npz-encoded cases as in-memory record blobs without a
    filesystem round trip.
    """
    header = {
        "format": NPZ_FORMAT,
        "cases": [
            {
                "case_id": case.case_id,
                "schema": schema_to_dict(case.dataset.schema),
                "true_raps": [str(rap) for rap in case.true_raps],
                "metadata": _jsonify(case.metadata),
            }
            for case in cases
        ],
    }
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    }
    for i, case in enumerate(cases):
        dataset = case.dataset
        arrays[f"codes_{i}"] = dataset.codes
        arrays[f"v_{i}"] = dataset.v
        arrays[f"f_{i}"] = dataset.f
        arrays[f"labels_{i}"] = dataset.labels
    np.savez(handle, **arrays)


def cases_to_npz_bytes(cases: Sequence[LocalizationCase]) -> bytes:
    """The exact :func:`save_cases_npz` byte stream, in memory."""
    buffer = io.BytesIO()
    write_cases_npz(cases, buffer)
    return buffer.getvalue()


def cases_from_npz_bytes(data: bytes) -> List[LocalizationCase]:
    """Inverse of :func:`cases_to_npz_bytes` (bit-exact round trip)."""
    return read_cases_npz(io.BytesIO(data))


def load_cases_npz(path: PathLike) -> List[LocalizationCase]:
    """Load a case list written by :func:`save_cases_npz`."""
    return read_cases_npz(Path(path))


def read_cases_npz(source) -> List[LocalizationCase]:
    """:func:`load_cases_npz` from a path or open binary file object."""
    with np.load(source, allow_pickle=False) as archive:
        if "header" not in archive:
            raise ValueError(f"{source} is not a repro npz case bundle")
        header = json.loads(archive["header"].tobytes().decode("utf-8"))
        if header.get("format") != NPZ_FORMAT:
            raise ValueError(f"{source} is not a repro npz case bundle")
        cases = []
        for i, entry in enumerate(header["cases"]):
            schema = schema_from_dict(entry["schema"])
            dataset = FineGrainedDataset(
                schema,
                archive[f"codes_{i}"],
                archive[f"v_{i}"],
                archive[f"f_{i}"],
                archive[f"labels_{i}"],
            )
            raps = tuple(
                AttributeCombination.parse(text) for text in entry["true_raps"]
            )
            cases.append(
                LocalizationCase(
                    case_id=entry["case_id"],
                    dataset=dataset,
                    true_raps=raps,
                    metadata=dict(entry.get("metadata", {})),
                )
            )
    return cases


def _jsonify(value):
    """Coerce numpy scalars / tuples in metadata into JSON-native types."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
