"""Append-only on-disk case/result store: a length-prefixed segment log.

The fleet persists its traffic so an operator can **replay** a day of
incidents bit-exactly, **audit** any single one, and **warm-start** the
engines after a restart instead of re-aggregating from cold.  The
format extends the repo's npz case bundle: each *case* record embeds the
exact :func:`~repro.data.io.cases_to_npz_bytes` stream of one case (same
bit-exact array round trip as ``.npz`` bundles), while *result* records
are JSON envelopes carrying the ranked pattern strings.

On-disk layout::

    header   MAGIC (8 bytes) + u32 version
    record   u32 envelope_len | u64 blob_len | u32 crc32(envelope+blob)
             envelope (JSON, utf-8) | blob (npz bytes for cases, empty
             for results)

A sidecar index (``<log>.idx``, JSON) caches ``(kind, seq, tenant,
offset)`` per record plus the log size it describes; it is rewritten on
:meth:`FleetStore.close` and ignored (rebuilt by a full scan) whenever
its recorded size disagrees with the log — so deleting it is always
safe.  A torn tail — the bytes of an append that never completed because
the writer died mid-record — is detected by length/CRC, reported with a
:class:`RuntimeWarning`, and truncated away when the store is opened
writable (an append-only log recovers by dropping the partial record,
exactly like the JSONL reader's truncated-final-line tolerance).

Everything is lock-protected: fleet workers append results from
their own threads.
"""

from __future__ import annotations

import json
import struct
import threading
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .. import obs
from ..data.injection import LocalizationCase
from ..data.io import cases_from_npz_bytes, cases_to_npz_bytes
from ..obs import trace as _trace

__all__ = ["FleetStore", "StoreRecord", "MAGIC", "STORE_VERSION"]

#: Segment-log file magic.
MAGIC = b"RAPFLEET"

#: On-disk format version; bump on layout changes.
STORE_VERSION = 1

#: Fixed-size record prefix: envelope length, blob length, CRC32.
_PREFIX = struct.Struct("<IQI")

_HEADER = struct.Struct("<8sI")

PathLike = Union[str, Path]


@dataclass
class StoreRecord:
    """One decoded segment-log record."""

    kind: str
    seq: int
    tenant: str
    #: Envelope fields beyond the routing triple (result rows, case ids).
    envelope: Dict
    #: Raw blob bytes (npz stream for ``kind == "case"``, else empty).
    blob: bytes
    #: Byte offset of the record in the log (auditing handle).
    offset: int

    def case(self) -> LocalizationCase:
        """Decode a ``case`` record's blob (bit-exact round trip)."""
        if self.kind != "case":
            raise ValueError(f"record at offset {self.offset} is a {self.kind!r}")
        return cases_from_npz_bytes(self.blob)[0]


class FleetStore:
    """Append-only segment log of fleet cases and results.

    Open writable (``mode="a"``, the default) to persist a run, or
    read-only (``mode="r"``) to audit/replay one.  The store is a
    context manager; closing flushes the sidecar index.
    """

    def __init__(self, path: PathLike, mode: str = "a"):
        if mode not in ("a", "r"):
            raise ValueError(f"mode must be 'a' or 'r', got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._lock = threading.Lock()
        self._index: List[Tuple[str, int, str, int]] = []
        self._handle = None
        if self.path.exists():
            self._open_existing()
        elif mode == "r":
            raise FileNotFoundError(self.path)
        else:
            self._create()

    # -- construction ------------------------------------------------------

    def _create(self) -> None:
        self._handle = self.path.open("w+b")
        self._handle.write(_HEADER.pack(MAGIC, STORE_VERSION))
        self._handle.flush()

    def _open_existing(self) -> None:
        self._handle = self.path.open("r+b" if self.mode == "a" else "rb")
        header = self._handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{self.path} is not a fleet segment log (short header)")
        magic, version = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{self.path} is not a fleet segment log")
        if version != STORE_VERSION:
            raise ValueError(
                f"{self.path} is store version {version}, "
                f"this build reads {STORE_VERSION}"
            )
        if not self._load_index():
            self._scan()

    @property
    def _index_path(self) -> Path:
        return self.path.with_name(self.path.name + ".idx")

    def _load_index(self) -> bool:
        """Adopt the sidecar index if it matches the log byte-for-byte."""
        try:
            payload = json.loads(self._index_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return False
        if payload.get("format") != "repro.fleet.idx.v1":
            return False
        if payload.get("log_bytes") != self.path.stat().st_size:
            return False  # stale: the log grew (or was torn) since the flush
        self._index = [
            (str(kind), int(seq), str(tenant), int(offset))
            for kind, seq, tenant, offset in payload.get("records", [])
        ]
        self._handle.seek(0, 2)
        return True

    def _scan(self) -> None:
        """Rebuild the index by walking the log; recover a torn tail."""
        self._index = []
        handle = self._handle
        handle.seek(_HEADER.size)
        good_end = _HEADER.size
        torn = False
        while True:
            offset = handle.tell()
            prefix = handle.read(_PREFIX.size)
            if not prefix:
                break
            if len(prefix) < _PREFIX.size:
                torn = True
                break
            env_len, blob_len, crc = _PREFIX.unpack(prefix)
            body = handle.read(env_len + blob_len)
            if len(body) < env_len + blob_len:
                torn = True
                break
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                torn = True
                break
            try:
                envelope = json.loads(body[:env_len].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                torn = True
                break
            self._index.append(
                (
                    str(envelope.get("kind", "")),
                    int(envelope.get("seq", -1)),
                    str(envelope.get("tenant", "")),
                    offset,
                )
            )
            good_end = handle.tell()
        if torn:
            warnings.warn(
                f"{self.path}: dropped a torn trailing record "
                f"(log recovered at byte {good_end})",
                RuntimeWarning,
                stacklevel=3,
            )
            obs.inc("fleet_store_recovered_total")
            if self.mode == "a":
                handle.truncate(good_end)
        handle.seek(0, 2)

    # -- appends -----------------------------------------------------------

    def _append(self, envelope: Dict, blob: bytes = b"") -> int:
        if self.mode != "a":
            raise ValueError(f"{self.path} is open read-only")
        env_bytes = json.dumps(envelope, sort_keys=True).encode("utf-8")
        crc = zlib.crc32(env_bytes + blob) & 0xFFFFFFFF
        with self._lock:
            self._handle.seek(0, 2)
            offset = self._handle.tell()
            self._handle.write(_PREFIX.pack(len(env_bytes), len(blob), crc))
            self._handle.write(env_bytes)
            if blob:
                self._handle.write(blob)
            self._handle.flush()
            self._index.append(
                (envelope["kind"], envelope["seq"], envelope["tenant"], offset)
            )
        if _trace.ACTIVE:
            obs.inc("fleet_store_records_total", kind=envelope["kind"])
            obs.inc(
                "fleet_store_bytes_total",
                _PREFIX.size + len(env_bytes) + len(blob),
            )
        return offset

    def append_case(self, seq: int, tenant: str, case: LocalizationCase) -> int:
        """Persist one submitted case; returns its log offset."""
        envelope = {
            "kind": "case",
            "seq": int(seq),
            "tenant": str(tenant),
            "case_id": case.case_id,
        }
        return self._append(envelope, cases_to_npz_bytes([case]))

    def append_result(self, seq: int, tenant: str, row: Dict) -> int:
        """Persist one completed result row; returns its log offset.

        ``row`` must be JSON-ready (pattern *strings*, not combinations)
        — the supervisor builds it via its result serialization, so a
        replay can compare ranked output string-for-string.
        """
        envelope = {
            "kind": "result",
            "seq": int(seq),
            "tenant": str(tenant),
            "row": row,
        }
        return self._append(envelope)

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def records(self, kind: Optional[str] = None) -> Iterator[StoreRecord]:
        """Decoded records in append order, optionally filtered by kind."""
        with self._lock:
            entries = list(self._index)
        for entry_kind, seq, tenant, offset in entries:
            if kind is not None and entry_kind != kind:
                continue
            with self._lock:
                self._handle.seek(offset)
                prefix = self._handle.read(_PREFIX.size)
                env_len, blob_len, __ = _PREFIX.unpack(prefix)
                body = self._handle.read(env_len + blob_len)
                self._handle.seek(0, 2)
            envelope = json.loads(body[:env_len].decode("utf-8"))
            yield StoreRecord(
                kind=entry_kind,
                seq=seq,
                tenant=tenant,
                envelope=envelope,
                blob=body[env_len:],
                offset=offset,
            )

    def cases(self) -> List[Tuple[int, str, LocalizationCase]]:
        """Every persisted case as ``(seq, tenant, case)``, in seq order."""
        decoded = [
            (record.seq, record.tenant, record.case())
            for record in self.records(kind="case")
        ]
        decoded.sort(key=lambda entry: entry[0])
        return decoded

    def results(self) -> List[Dict]:
        """Every persisted result row (with seq/tenant), in seq order."""
        rows = [
            dict(record.envelope["row"], seq=record.seq, tenant=record.tenant)
            for record in self.records(kind="result")
        ]
        rows.sort(key=lambda row: row["seq"])
        return rows

    def last_cases(self) -> Dict[str, Tuple[int, LocalizationCase]]:
        """The newest case per tenant for warm starts.

        Keyed by tenant; the value is ``(seq, case)`` for the highest-seq
        case that tenant submitted.
        """
        latest: Dict[str, Tuple[int, int]] = {}
        with self._lock:
            entries = list(self._index)
        for position, (kind, seq, tenant, __) in enumerate(entries):
            if kind != "case":
                continue
            known = latest.get(tenant)
            if known is None or seq > known[0]:
                latest[tenant] = (seq, position)
        out: Dict[str, Tuple[int, LocalizationCase]] = {}
        for record in self.records(kind="case"):
            entry = latest.get(record.tenant)
            if entry is not None and record.seq == entry[0]:
                out[record.tenant] = (record.seq, record.case())
        return out

    # -- lifecycle ---------------------------------------------------------

    def flush_index(self) -> None:
        """Write the sidecar index describing the log's current bytes."""
        if self.mode != "a":
            return
        with self._lock:
            self._handle.flush()
            payload = {
                "format": "repro.fleet.idx.v1",
                "log_bytes": self.path.stat().st_size,
                "records": [list(entry) for entry in self._index],
            }
        self._index_path.write_text(json.dumps(payload))

    def close(self) -> None:
        if self._handle is None:
            return
        self.flush_index()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "FleetStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
