"""Blocking clients for both serving planes (tests, tools, quickstarts).

Both clients speak the vocabulary of :mod:`repro.serving.protocol` and
return the decoded response body as a plain dict — callers branch on
``body["status"]`` / ``body["code"]``, exactly as the protocol spec
(``docs/serving.md``) prescribes.  They are dependency-free (stdlib
``http.client`` / ``socket``) and deliberately synchronous: the serving
tier's concurrency lives server-side, and a per-tick agent submits one
snapshot at a time.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Dict, Optional

from ..data.injection import LocalizationCase
from ..data.io import case_to_dict
from .protocol import (
    FRAME_HEADER,
    KIND_REQUEST,
    ProtocolError,
    _check_header,
    encode_frame,
)

__all__ = ["BinaryServingClient", "ServingClient", "localize_payload"]


def localize_payload(
    case: LocalizationCase,
    tenant: Optional[str] = None,
    k: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    request_id: Optional[str] = None,
) -> Dict:
    """The request object both clients send (see ``docs/serving.md``).

    ``case`` stays a :class:`LocalizationCase`; each client serializes it
    for its plane: :class:`ServingClient` as a ``case_to_dict`` bundle,
    :func:`~repro.serving.protocol.encode_frame` as raw columns.
    """
    payload: Dict = {"case": case}
    if tenant is not None:
        payload["tenant"] = tenant
    if k is not None:
        payload["k"] = k
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    if request_id is not None:
        payload["request_id"] = request_id
    return payload


class ServingClient:
    """HTTP JSON client: one connection per call, simplest possible."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def localize(
        self,
        case: LocalizationCase,
        tenant: Optional[str] = None,
        k: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Dict:
        """POST one case; returns the decoded response body."""
        payload = localize_payload(case, tenant, k, deadline_ms, request_id)
        payload["case"] = case_to_dict(case)
        body = json.dumps(payload).encode("utf-8")
        status, _, data = self.request("POST", "/localize", body)
        response = json.loads(data.decode("utf-8"))
        response["http_status"] = status
        return response

    def request(
        self, method: str, route: str, body: Optional[bytes] = None
    ) -> tuple:
        """One raw exchange: ``(status, content_type, body_bytes)``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Length": str(len(body))} if body is not None else {}
            conn.request(method, route, body=body, headers=headers)
            response = conn.getresponse()
            return (
                response.status,
                response.getheader("Content-Type", ""),
                response.read(),
            )
        finally:
            conn.close()

    def metrics(self) -> str:
        """Scrape ``/metrics`` off the serving port (Prometheus text)."""
        status, __, data = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        return data.decode("utf-8")


class BinaryServingClient:
    """RPSV frame client over one persistent connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "BinaryServingClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def localize(
        self,
        case: LocalizationCase,
        tenant: Optional[str] = None,
        k: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Dict:
        """Send one request frame and read the matching response frame."""
        frame = encode_frame(
            KIND_REQUEST, localize_payload(case, tenant, k, deadline_ms, request_id)
        )
        self._sock.sendall(frame)
        __, payload = self._read_frame()
        return json.loads(payload.decode("utf-8"))

    def send_raw(self, data: bytes) -> None:
        """Send arbitrary bytes (the malformed-input tests use this)."""
        self._sock.sendall(data)

    def read_response(self) -> Dict:
        """Read one response frame's decoded body."""
        __, payload = self._read_frame()
        return json.loads(payload.decode("utf-8"))

    def _read_frame(self) -> tuple:
        header = self._recv_exact(FRAME_HEADER.size)
        kind, length = _check_header(header, None)
        return kind, self._recv_exact(length)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ProtocolError(
                    "truncated", f"server closed mid-frame ({n - remaining}/{n} bytes)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)
