"""Wire protocol of the serving front door: schemas, codes, framing.

One request/response vocabulary serves both listeners:

* **HTTP JSON** — ``POST /localize`` with a JSON body whose ``case`` is
  a :func:`~repro.data.io.case_to_dict` bundle; responses are JSON with
  an HTTP status mirroring the typed code.
* **Binary (RPSV)** — a length-prefixed frame stream for agents that
  submit every tick: ``b"RPSV"`` magic, a version byte, a kind byte
  (request / response / error), a big-endian ``u32`` payload length,
  then the payload.  A request payload (version 2) is a big-endian
  ``u32`` head length, a UTF-8 JSON head carrying the request fields
  and the case's fields with a ``{"dtype", "offset", "length"}``
  descriptor per leaf-table column, then the four raw column buffers
  back to back (:func:`~repro.data.io.case_to_columns`): no base64 and
  no number parsing.  Response and error payloads are UTF-8 JSON.

Every failure mode has a **typed code** (:data:`ERROR_CODES`,
:data:`SHED_CODES`) so clients branch on ``code``, never on prose, and
the ``serving_malformed_total`` / ``serving_shed_total`` metric families
label by the same strings.  Malformed input of any shape — truncated
frame, oversized payload, undecodable JSON, schema violations, an
unknown tenant — raises :class:`ProtocolError` *before* anything touches
the fleet, so a bad request can never wedge or leak a shard.

``docs/serving.md`` is the normative prose spec of everything here; the
two must change together.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..data.injection import LocalizationCase
from ..data.io import COLUMNS, case_from_columns, case_from_dict, case_to_columns

__all__ = [
    "ERROR_CODES",
    "FRAME_HEADER",
    "HEAD_LENGTH",
    "KIND_ERROR",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "MAGIC",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "LocalizeRequest",
    "SHED_CODES",
    "decode_frame",
    "encode_frame",
    "error_body",
    "http_status_for",
    "ok_body",
    "parse_request",
    "read_frame",
    "shed_body",
]

#: Frame magic: four bytes at the start of every binary frame.
MAGIC = b"RPSV"
#: Wire protocol version carried in every frame header.  Version 2
#: request frames carry raw column buffers; version 1 frames (JSON
#: payloads with base64 columns) are refused with ``bad_frame``.
PROTOCOL_VERSION = 2
#: ``>4s B B I`` — magic, version, kind, payload length (big-endian).
FRAME_HEADER = struct.Struct(">4sBBI")
#: ``>I`` — byte length of a request payload's JSON head (big-endian).
HEAD_LENGTH = struct.Struct(">I")

#: Frame kinds.
KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3

#: Typed request-rejection codes → HTTP status.  A response with
#: ``status: "error"`` carries exactly one of these in ``code``.
ERROR_CODES: Dict[str, int] = {
    "bad_frame": 400,  # binary header malformed (magic/version/kind)
    "truncated": 400,  # stream ended inside a frame or HTTP body
    "oversized_payload": 413,  # declared or actual size over the cap
    "bad_json": 400,  # payload is not valid JSON
    "bad_request": 400,  # JSON shape violates the request schema
    "bad_case": 400,  # case bundle does not decode into a dataset
    "unknown_tenant": 403,  # tenant not in the server's allowlist
    "not_found": 404,  # no such route
    "bad_method": 405,  # route exists, method does not
    "timeout": 504,  # result did not land within the server cap
    "internal": 500,  # localizer raised; the error rides in message
}

#: Typed admission-shed codes → HTTP status.  A response with
#: ``status: "shed"`` carries exactly one of these in ``code``.
SHED_CODES: Dict[str, int] = {
    "queue_full": 503,  # server-wide admitted depth at the hard cap
    "tenant_quota": 429,  # this tenant's in-flight share exhausted
    "shutting_down": 503,  # server is draining; resubmit elsewhere
}


class ProtocolError(Exception):
    """A typed wire-level rejection (never reaches the fleet).

    ``code`` is a key of :data:`ERROR_CODES`; ``message`` is the
    human-readable detail included in the response body.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class LocalizeRequest:
    """One validated localization request, ready for admission."""

    case: LocalizationCase
    tenant: str
    k: Optional[int] = None
    deadline_ms: Optional[float] = None
    request_id: Optional[str] = None


#: Request fields besides the case, on both planes.
_REQUEST_FIELDS = frozenset({"tenant", "k", "deadline_ms", "request_id"})
#: Fields of an HTTP request body.
_BODY_FIELDS = _REQUEST_FIELDS | {"case"}
#: Fields of an RPSV request head: the request's and the case's.
_HEAD_FIELDS = _REQUEST_FIELDS | {"case_id", "schema", "true_raps", "metadata", *COLUMNS}


def parse_request(payload: bytes, binary: bool = False) -> LocalizeRequest:
    """Decode and validate one request payload.

    *payload* is an HTTP body, or with *binary* the payload of an RPSV
    request frame.  Raises :class:`ProtocolError` with ``bad_json`` /
    ``bad_request`` / ``bad_case`` — the caller maps the code to a
    response; nothing invalid gets past this function.
    """
    if binary:
        data, tail = _split_head(payload)
        fields = _HEAD_FIELDS
    else:
        try:
            data = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise ProtocolError("bad_json", f"request payload is not JSON: {exc}")
        if not isinstance(data, dict):
            raise ProtocolError("bad_request", "request must be a JSON object")
        fields = _BODY_FIELDS
    unknown = set(data) - fields
    if unknown:
        raise ProtocolError("bad_request", f"unknown fields: {sorted(unknown)}")
    if not binary and not isinstance(data.get("case"), dict):
        raise ProtocolError("bad_request", "'case' must be a case bundle object")
    k = data.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
        raise ProtocolError("bad_request", f"'k' must be a positive integer, got {k!r}")
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms, bool):
            raise ProtocolError("bad_request", "'deadline_ms' must be a number")
        if not deadline_ms > 0:
            raise ProtocolError("bad_request", "'deadline_ms' must be > 0")
    request_id = data.get("request_id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError("bad_request", "'request_id' must be a string")
    tenant = data.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise ProtocolError("bad_request", "'tenant' must be a string")
    try:
        case = case_from_columns(data, tail) if binary else case_from_dict(data["case"])
    except Exception as exc:  # noqa: BLE001 - any decode failure is the client's
        raise ProtocolError("bad_case", f"case bundle does not decode: {exc}")
    if tenant is None:
        tenant = str(case.metadata.get("tenant", "default"))
    return LocalizeRequest(
        case=case,
        tenant=tenant,
        k=k,
        deadline_ms=None if deadline_ms is None else float(deadline_ms),
        request_id=request_id,
    )


def _split_head(payload: bytes) -> Tuple[Dict, memoryview]:
    """An RPSV request payload's JSON head, and a view of the column bytes.

    A payload too short for its head length, or whose head is not a
    UTF-8 JSON object, is a ``bad_request``.
    """
    if len(payload) < HEAD_LENGTH.size:
        raise ProtocolError(
            "bad_request", f"request payload needs a {HEAD_LENGTH.size}-byte head length"
        )
    (length,) = HEAD_LENGTH.unpack_from(payload)
    end = HEAD_LENGTH.size + length
    if end > len(payload):
        raise ProtocolError(
            "bad_request",
            f"head declares {length} bytes; the payload holds "
            f"{len(payload) - HEAD_LENGTH.size} after the head length",
        )
    try:
        head = json.loads(payload[HEAD_LENGTH.size : end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise ProtocolError("bad_request", f"request head is not JSON: {exc}")
    if not isinstance(head, dict):
        raise ProtocolError("bad_request", "request head must be a JSON object")
    return head, memoryview(payload)[end:]


# -- response bodies -------------------------------------------------------


def ok_body(
    *,
    case_id: str,
    tenant: str,
    root_causes,
    seconds: float,
    tier: Optional[str],
    stop_reason: Optional[str],
    shard: Optional[int],
    request_id: Optional[str],
) -> Dict:
    """The ``status: "ok"`` response object (see ``docs/serving.md``)."""
    return {
        "status": "ok",
        "case_id": case_id,
        "tenant": tenant,
        "root_causes": [str(p) for p in root_causes],
        "seconds": seconds,
        "tier": tier if tier is not None else "full",
        "stop_reason": stop_reason,
        "shard": shard,
        "request_id": request_id,
    }


def shed_body(
    code: str, *, retry_after_ms: Optional[float] = None, request_id: Optional[str] = None
) -> Dict:
    """The ``status: "shed"`` response object for an admission refusal."""
    if code not in SHED_CODES:
        raise ValueError(f"unknown shed code {code!r}")
    return {
        "status": "shed",
        "code": code,
        "retry_after_ms": retry_after_ms,
        "request_id": request_id,
    }


def error_body(
    code: str, message: str, *, request_id: Optional[str] = None
) -> Dict:
    """The ``status: "error"`` response object for a typed rejection."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {
        "status": "error",
        "code": code,
        "message": message,
        "request_id": request_id,
    }


def http_status_for(body: Dict) -> int:
    """The HTTP status mirroring a response body's typed code."""
    status = body.get("status")
    if status == "ok":
        return 200
    if status == "shed":
        return SHED_CODES[body["code"]]
    if status == "error":
        return ERROR_CODES[body["code"]]
    raise ValueError(f"unknown response status {status!r}")


# -- binary framing --------------------------------------------------------


def encode_frame(kind: int, payload: Dict) -> bytes:
    """One RPSV frame: header plus payload.

    A request *payload* is a :func:`~repro.serving.client.localize_payload`
    object, whose ``case`` is a :class:`LocalizationCase`: it travels as
    the version-2 head and raw columns.  Response and error payloads
    travel as JSON.
    """
    if kind not in (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR):
        raise ValueError(f"unknown frame kind {kind!r}")
    if kind == KIND_REQUEST:
        parts = _request_parts(payload)
    else:
        parts = [json.dumps(payload).encode("utf-8")]
    length = sum(len(part) for part in parts)
    return b"".join([FRAME_HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, length), *parts])


def _request_parts(payload: Dict) -> list:
    """The byte strings of a request frame's payload, in order."""
    fields = dict(payload)
    case = fields.pop("case", None)
    if not isinstance(case, LocalizationCase):
        raise TypeError("a request frame's payload needs a LocalizationCase as 'case'")
    head, buffers = case_to_columns(case)
    head.update(fields)
    text = json.dumps(head).encode("utf-8")
    return [HEAD_LENGTH.pack(len(text)), text, *buffers]


def decode_frame(data: bytes, max_payload: Optional[int] = None) -> Tuple[int, bytes]:
    """Split one complete in-memory frame into ``(kind, payload)``.

    Raises :class:`ProtocolError` (``bad_frame`` / ``truncated`` /
    ``oversized_payload``) on anything that is not a whole valid frame.
    """
    if len(data) < FRAME_HEADER.size:
        raise ProtocolError("truncated", f"frame header needs {FRAME_HEADER.size} bytes")
    kind, length = _check_header(data[: FRAME_HEADER.size], max_payload)
    payload = data[FRAME_HEADER.size :]
    if len(payload) < length:
        raise ProtocolError(
            "truncated", f"frame declares {length} payload bytes, got {len(payload)}"
        )
    return kind, payload[:length]


async def read_frame(
    reader: asyncio.StreamReader, max_payload: int
) -> Optional[Tuple[int, bytes]]:
    """Read one frame from a stream; ``None`` on clean EOF between frames.

    A stream ending *inside* a frame raises ``truncated``; a declared
    length over *max_payload* raises ``oversized_payload`` before any
    payload byte is read, so an abusive declaration costs no memory.
    """
    header = await reader.read(FRAME_HEADER.size)
    if not header:
        return None
    while len(header) < FRAME_HEADER.size:
        chunk = await reader.read(FRAME_HEADER.size - len(header))
        if not chunk:
            raise ProtocolError(
                "truncated", f"stream ended inside a frame header ({len(header)} bytes)"
            )
        header += chunk
    kind, length = _check_header(header, max_payload)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            "truncated",
            f"stream ended inside a frame payload ({len(exc.partial)}/{length} bytes)",
        )
    return kind, payload


def _check_header(header: bytes, max_payload: Optional[int]) -> Tuple[int, int]:
    magic, version, kind, length = FRAME_HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError("bad_frame", f"bad magic {magic!r} (want {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad_frame", f"unsupported protocol version {version} (want {PROTOCOL_VERSION})"
        )
    if kind not in (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR):
        raise ProtocolError("bad_frame", f"unknown frame kind {kind}")
    if max_payload is not None and length > max_payload:
        raise ProtocolError(
            "oversized_payload", f"frame declares {length} bytes (cap {max_payload})"
        )
    return kind, length
