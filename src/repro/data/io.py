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
  request bodies use).  Both forms pass one column validator, which
  rejects a column whose dtype (or list item kind), row count or label
  values disagree with the schema; nothing is coerced.
* **Raw columns** for RPSV request frames: :func:`case_to_columns`
  gives a JSON head (the same fields, each column a
  ``{"dtype", "offset", "length"}`` descriptor) and the four raw
  buffers, and :func:`case_from_columns` decodes them through the same
  validator, after checking that the columns tile their bytes exactly.
  No base64 and no number parsing on this path.
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    "case_to_columns",
    "case_from_columns",
    "COLUMNS",
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
#: The leaf-table columns, in the order an RPSV request frame carries them.
COLUMNS = ("codes", "v", "f", "labels")
#: In-memory dtype of each column once decoded.
_NATIVE = {"codes": np.int64, "v": np.float64, "f": np.float64, "labels": bool}
#: numpy dtype kinds a list-form column may hold, and their description.
_LIST_KINDS = {
    "codes": ("iu", "integers"),
    "v": ("iuf", "numbers"),
    "f": ("iuf", "numbers"),
    "labels": ("biu", "0/1 integers or booleans"),
}


def _code_dtype(schema: AttributeSchema) -> str:
    """The narrowest packed ``codes`` dtype holding every code of *schema*."""
    largest = max(schema.sizes) - 1
    return next(dtype for dtype in _CODE_DTYPES if largest <= np.iinfo(dtype).max)


def _wire_dtypes(schema: AttributeSchema) -> Dict[str, str]:
    """The packed dtype of each column for *schema*."""
    return {
        "codes": _code_dtype(schema),
        "v": _VALUE_DTYPE,
        "f": _VALUE_DTYPE,
        "labels": _LABEL_DTYPE,
    }


def _column_bytes(dataset: FineGrainedDataset) -> Dict[str, Tuple[str, bytes]]:
    """Each column's packed dtype and raw little-endian buffer, in wire order."""
    dtypes = _wire_dtypes(dataset.schema)
    return {
        key: (
            dtypes[key],
            np.ascontiguousarray(getattr(dataset, key), dtype=dtypes[key]).tobytes(),
        )
        for key in COLUMNS
    }


def _column(key: str, values: np.ndarray, per_row: int, n_rows: Optional[int]) -> np.ndarray:
    """The column validator that every wire form ends in.

    *values* holds column *key*'s items flat, in a dtype the caller has
    already matched to the schema.  Checks a whole number of rows of
    *per_row* items — ``n_rows`` rows when that is already known — and
    that ``labels`` holds only 0 and 1.  Returns an owned array of the
    column's in-memory dtype, never a view of the request's bytes.
    """
    rows, rest = divmod(values.size, per_row)
    if rest or (n_rows is not None and rows != n_rows):
        wanted = "a whole number of" if n_rows is None else n_rows
        raise ValueError(
            f"column {key!r} holds {values.size} items, not {wanted} rows of {per_row}"
        )
    if key == "labels" and values.size and (values.min() < 0 or values.max() > 1):
        raise ValueError(f"column {key!r} holds a value other than 0 or 1")
    # astype copies: the dataset owns its buffer and the request bytes can go.
    return values.astype(_NATIVE[key])


def _buffer_column(
    key: str, declared, raw, dtype: str, per_row: int, n_rows: Optional[int]
) -> np.ndarray:
    """Column *key* from its raw buffer (packed and RPSV forms)."""
    if declared != dtype:
        raise ValueError(
            f"column {key!r} has dtype {declared!r}; this schema needs {dtype!r}"
        )
    row_bytes = per_row * np.dtype(dtype).itemsize
    if len(raw) % row_bytes:
        raise ValueError(
            f"column {key!r} holds {len(raw)} bytes, not whole rows of {row_bytes} bytes"
        )
    return _column(key, np.frombuffer(raw, dtype=dtype), per_row, n_rows)


def _list_column(key: str, items: list, per_row: int, n_rows: Optional[int]) -> np.ndarray:
    """Column *key* from the list form: its items must be of the right kind.

    ``codes`` may be nested rows or one flat list; the other columns are
    flat.  Nothing is coerced: a float code, a string value or a label
    outside {0, 1} is rejected, not truncated or parsed.
    """
    try:
        values = np.asarray(items)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"list column {key!r} is not a regular array: {exc}") from None
    kinds, wanted = _LIST_KINDS[key]
    if values.size and values.dtype.kind not in kinds:
        raise ValueError(f"list column {key!r} must hold {wanted}, got {values.dtype}")
    nested = key == "codes" and values.ndim == 2 and values.shape[1] == per_row
    if values.ndim != 1 and not nested:
        raise ValueError(f"list column {key!r} has shape {values.shape}")
    return _column(key, values.reshape(-1), per_row, n_rows)


def _dict_column(
    data: Dict, key: str, dtype: str, per_row: int, n_rows: Optional[int]
) -> np.ndarray:
    """Column *key* of a case dict: packed object or list form."""
    column = data[key]
    if isinstance(column, list):
        return _list_column(key, column, per_row, n_rows)
    if not isinstance(column, dict):
        raise ValueError(f"column {key!r} must be a packed object or a list")
    if set(column) != {"dtype", "b64"}:
        raise ValueError(
            f"packed column {key!r} needs exactly the keys 'b64' and 'dtype', "
            f"got {sorted(column)}"
        )
    if not isinstance(column["b64"], str):
        raise ValueError(f"packed column {key!r}: 'b64' must be a string")
    try:
        raw = base64.b64decode(column["b64"], validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ValueError(f"packed column {key!r} is not base64: {exc}") from None
    return _buffer_column(key, column["dtype"], raw, dtype, per_row, n_rows)


def _case_fields(case: LocalizationCase) -> Dict:
    """Everything of a case dict but its columns."""
    return {
        "case_id": case.case_id,
        "schema": schema_to_dict(case.dataset.schema),
        "true_raps": [str(rap) for rap in case.true_raps],
        "metadata": _jsonify(case.metadata),
    }


def _decode_case(data: Dict, column) -> LocalizationCase:
    """A case from the fields of *data* and ``column(key, dtype, per_row, n_rows)``."""
    schema = schema_from_dict(data["schema"])
    dtypes = _wire_dtypes(schema)
    width = schema.n_attributes
    codes = column("codes", dtypes["codes"], width, None).reshape(-1, width)
    n_rows = len(codes)
    dataset = FineGrainedDataset(
        schema,
        codes,
        column("v", dtypes["v"], 1, n_rows),
        column("f", dtypes["f"], 1, n_rows),
        column("labels", dtypes["labels"], 1, n_rows),
    )
    raps = tuple(AttributeCombination.parse(text) for text in data["true_raps"])
    return LocalizationCase(
        case_id=data["case_id"],
        dataset=dataset,
        true_raps=raps,
        metadata=dict(data.get("metadata", {})),
    )


def case_to_dict(case: LocalizationCase) -> Dict:
    """JSON-ready representation of a localization case (packed columns)."""
    data = _case_fields(case)
    for key, (dtype, raw) in _column_bytes(case.dataset).items():
        data[key] = {"dtype": dtype, "b64": base64.b64encode(raw).decode("ascii")}
    return data


def case_from_dict(data: Dict) -> LocalizationCase:
    """Inverse of :func:`case_to_dict`; also reads the list-form columns.

    Raises ``ValueError`` when a packed column has the wrong dtype for
    the schema, a byte length that does not match the row count, or
    (``labels``) a value other than 0 or 1, and when a list-form column
    holds items of the wrong kind (a float code, a string value, a
    label other than 0 or 1) or the wrong number of rows.
    """
    return _decode_case(
        data,
        lambda key, dtype, per_row, n_rows: _dict_column(data, key, dtype, per_row, n_rows),
    )


def case_to_columns(case: LocalizationCase) -> Tuple[Dict, List[bytes]]:
    """The raw-column form of a case: a JSON-ready head and four buffers.

    The head holds :func:`case_to_dict`'s fields, except that each column
    is a descriptor ``{"dtype", "offset", "length"}`` locating its raw
    little-endian buffer in the byte string the buffers form back to
    back, in :data:`COLUMNS` order.  This is the case part of an RPSV
    request frame (``docs/serving.md``).
    """
    head = _case_fields(case)
    buffers = []
    offset = 0
    for key, (dtype, raw) in _column_bytes(case.dataset).items():
        head[key] = {"dtype": dtype, "offset": offset, "length": len(raw)}
        buffers.append(raw)
        offset += len(raw)
    return head, buffers


def case_from_columns(head: Dict, tail) -> LocalizationCase:
    """Inverse of :func:`case_to_columns`; *tail* is the buffers' bytes.

    Each column descriptor must carry exactly ``dtype``, ``offset`` and
    ``length``, and the columns must tile *tail* exactly, in
    :data:`COLUMNS` order: no column past its end, no overlap, no gap,
    no trailing byte.  The column checks are those of
    :func:`case_from_dict`, and the arrays are copies, so *tail* can go.
    Raises ``ValueError`` on any violation.
    """
    view = memoryview(tail)
    buffers = {}
    position = 0
    for key in COLUMNS:
        column = head[key]
        if not isinstance(column, dict) or set(column) != {"dtype", "offset", "length"}:
            raise ValueError(
                f"column {key!r} needs exactly the keys 'dtype', 'length' and 'offset'"
            )
        offset, length = column["offset"], column["length"]
        if type(offset) is not int or type(length) is not int or offset < 0 or length < 0:
            raise ValueError(f"column {key!r}: offset and length must be integers >= 0")
        if offset + length > len(view):
            raise ValueError(
                f"column {key!r} spans bytes {offset}-{offset + length} "
                f"of {len(view)} column bytes"
            )
        if offset != position:
            raise ValueError(
                f"column {key!r} starts at byte {offset}, not at {position} "
                f"where the column before it ends"
            )
        position = offset + length
        buffers[key] = (column["dtype"], view[offset:position])
    if position != len(view):
        raise ValueError(f"{len(view) - position} bytes follow the last column")
    return _decode_case(
        head,
        lambda key, dtype, per_row, n_rows: _buffer_column(
            key, *buffers[key], dtype, per_row, n_rows
        ),
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
