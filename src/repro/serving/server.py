"""The serving front door: an asyncio server over the warm-engine fleet.

:class:`LocalizationServer` is the network face of a
:class:`~repro.fleet.supervisor.FleetSupervisor`: per-tick KPI snapshot
requests arrive over HTTP JSON and/or the RPSV binary stream
(:mod:`repro.serving.protocol`), pass the admission controller
(:mod:`repro.serving.admission`), run on the fleet's warm workers, and
return ranked root-cause sets.  Three design rules hold everything
together:

* **Bind-then-report.**  Listener sockets are bound synchronously in
  :meth:`start` *before* the event loop thread exists;
  :attr:`http_port` / :attr:`binary_port` are exact the moment
  :meth:`start` returns.  No sleep-and-retry, no reading ports out of
  logs — the flake class where a test races the listener is structurally
  impossible.
* **Shed, never queue unboundedly.**  Admission is decided at arrival:
  full, degraded (tight deadline + ladder), or a typed shed response.
  An admitted slot is held until the *fleet* finishes the case, so
  abandoning a request frees nothing early.
* **The fleet stays bit-exact.**  An accepted request without a
  deadline runs the exact serial ``localize`` path on a warm worker —
  the response's root causes are bit-identical to an in-process run on
  the same case.  Degradation only ever enters through an explicit
  ``deadline_ms`` (the client's or the degraded tier's).

The event loop runs in a dedicated daemon thread; each request submits
its case with its own completion callback, through which the fleet
worker that finishes it resolves the request's future
(``loop.call_soon_threadsafe``).  Telemetry
routes (``/metrics``, ``/healthz``, ``/readyz``, ``/debug/*``) are
mounted on the HTTP listener by delegating to
:meth:`~repro.obs.server.TelemetryServer.dispatch`, so one port serves
both planes; every request feeds the ``serving_*`` metric family and
the :class:`~repro.obs.slo.SLOTracker`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence
from urllib.parse import parse_qs, urlparse

from .. import obs
from ..fleet.supervisor import CaseOutcome, FleetSupervisor
from ..obs.server import TelemetryServer
from ..obs.slo import SLOTracker, TickOutcome
from .admission import AdmissionConfig, AdmissionController
from .protocol import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    LocalizeRequest,
    ProtocolError,
    encode_frame,
    error_body,
    http_status_for,
    ok_body,
    parse_request,
    read_frame,
    shed_body,
)

__all__ = ["LocalizationServer", "ServingConfig", "TELEMETRY_ROUTES"]

#: Telemetry-plane routes the HTTP listener forwards to the dispatcher.
TELEMETRY_ROUTES = ("/metrics", "/healthz", "/readyz", "/debug/spans", "/debug/profile")


@dataclass
class ServingConfig:
    """Network and policy knobs of one :class:`LocalizationServer`."""

    host: str = "127.0.0.1"
    #: HTTP JSON listener port; ``0`` binds ephemeral (read it back from
    #: :attr:`LocalizationServer.http_port`).
    port: int = 0
    #: RPSV binary listener port; ``None`` disables the binary plane.
    binary_port: Optional[int] = 0
    #: Admission policy (queue caps, tenant shares, degraded deadline).
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Reject request payloads larger than this before decoding them.
    max_payload_bytes: int = 8 * 1024 * 1024
    #: Server-side cap on waiting for an admitted case's result; the
    #: response degrades to a typed ``timeout`` error past it (the slot
    #: is still held until the fleet finishes).
    request_timeout_s: float = 60.0
    #: Tenant allowlist; ``None`` admits any tenant string.
    tenants: Optional[Sequence[str]] = None
    #: Deadline pinned on full-tier requests that did not bring one
    #: (``None`` = unlimited, the bit-exact serial path).
    default_deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_payload_bytes < 1024:
            raise ValueError(
                f"max_payload_bytes must be >= 1024, got {self.max_payload_bytes}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )


class LocalizationServer:
    """Serve localization requests over a fleet (see module docstring).

    Parameters
    ----------
    supervisor:
        The fleet to serve on.  The server owns its serving lifecycle
        (:meth:`~repro.fleet.supervisor.FleetSupervisor.start_serving` /
        ``stop_serving``) for the duration.
    config:
        Network and admission knobs; defaults bind ephemeral localhost
        ports for both planes.
    telemetry:
        Route dispatcher for the telemetry plane.  Default: a fresh
        (never-started) :class:`~repro.obs.server.TelemetryServer` whose
        readiness probe reflects this server's state.
    slo:
        Tracker fed one :class:`~repro.obs.slo.TickOutcome` per admitted
        request.  Default: a fresh tracker with the stock objectives.
    """

    def __init__(
        self,
        supervisor: FleetSupervisor,
        config: Optional[ServingConfig] = None,
        telemetry: Optional[TelemetryServer] = None,
        slo: Optional[SLOTracker] = None,
    ):
        self.supervisor = supervisor
        self.config = config if config is not None else ServingConfig()
        self.admission = AdmissionController(self.config.admission)
        self.slo = slo if slo is not None else SLOTracker()
        self.telemetry = (
            telemetry
            if telemetry is not None
            else TelemetryServer(readiness=self._readiness)
        )
        self._allowed = (
            None if self.config.tenants is None else frozenset(self.config.tenants)
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._http_sock: Optional[socket.socket] = None
        self._binary_sock: Optional[socket.socket] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._binary_server: Optional[asyncio.AbstractServer] = None
        #: Open accepted connections (writer -> handler task), touched on
        #: the loop thread only; stop() closes what is left.
        self._connections: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._served_lock = threading.Lock()
        self._started = False
        self._requests_served = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LocalizationServer":
        """Bind, start the fleet's serving mode, and begin accepting."""
        if self._started:
            raise RuntimeError("serving server already started")
        # Bind first: ports are known (and owned) before anything async
        # exists, so http_port/binary_port never race the accept loop.
        self._http_sock = socket.create_server(
            (self.config.host, self.config.port), reuse_port=False
        )
        if self.config.binary_port is not None:
            try:
                self._binary_sock = socket.create_server(
                    (self.config.host, self.config.binary_port), reuse_port=False
                )
            except OSError:
                self._http_sock.close()
                self._http_sock = None
                raise
        self.supervisor.start_serving()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serving", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._open_listeners(), self._loop).result(
            timeout=30
        )
        self._started = True
        return self

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    async def _open_listeners(self) -> None:
        self._http_server = await asyncio.start_server(
            self._tracked(self._serve_http), sock=self._http_sock
        )
        if self._binary_sock is not None:
            self._binary_server = await asyncio.start_server(
                self._tracked(self._serve_binary), sock=self._binary_sock
            )

    def _tracked(self, handler):
        """*handler* as a connect callback that registers its connection."""

        def on_connect(reader, writer) -> None:
            task = asyncio.get_running_loop().create_task(handler(reader, writer))
            self._connections[writer] = task
            task.add_done_callback(lambda _: self._finished(writer, task))

        return on_connect

    def _finished(self, writer: asyncio.StreamWriter, task: asyncio.Task) -> None:
        """Forget a finished connection; report a handler that crashed."""
        self._connections.pop(writer, None)
        if not task.cancelled() and task.exception() is not None:
            task.get_loop().call_exception_handler(
                {"message": "connection handler failed", "exception": task.exception()}
            )

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and shut down: shed new work, finish admitted work.

        Order matters: admission flips to ``shutting_down`` (typed sheds
        from here on), listeners stop accepting, the fleet runs its
        queues dry delivering every admitted result, in-flight handlers
        write their responses, connections still open are closed, then
        the loop thread exits.  Idempotent.
        """
        if not self._started:
            return
        self._started = False
        self.admission.begin_shutdown()
        assert self._loop is not None and self._thread is not None
        asyncio.run_coroutine_threadsafe(self._close_listeners(), self._loop).result(
            timeout=timeout
        )
        self.supervisor.stop_serving(timeout=timeout)
        asyncio.run_coroutine_threadsafe(self._quiesce(), self._loop).result(
            timeout=timeout
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._loop = None
        self._thread = None
        self._http_server = None
        self._binary_server = None
        self._http_sock = None
        self._binary_sock = None

    async def _close_listeners(self) -> None:
        """Stop accepting, let accepts in progress finish, then close.

        An accepted socket becomes a transport a few loop turns later; a
        server closed in between cannot attach it and leaks the socket.
        The tasks that are neither handlers nor this one are those accepts.
        """
        loop = asyncio.get_running_loop()
        servers = [s for s in (self._http_server, self._binary_server) if s is not None]
        for server in servers:
            for sock in server.sockets:
                loop.remove_reader(sock.fileno())
        accepting = (
            asyncio.all_tasks()
            - set(self._connections.values())
            - {asyncio.current_task()}
        )
        if accepting:
            await asyncio.wait(accepting, timeout=5.0)
        for server in servers:
            server.close()
            await server.wait_closed()

    async def _quiesce(self) -> None:
        """Let in-flight handlers finish, then close what is still open."""
        if self._connections:
            await asyncio.wait(list(self._connections.values()), timeout=5.0)
        for writer in list(self._connections):
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections.values()), timeout=1.0)

    def __enter__(self) -> "LocalizationServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started

    @property
    def http_port(self) -> int:
        """The bound HTTP port (exact once :meth:`start` returned)."""
        if self._http_sock is None:
            return self.config.port
        return self._http_sock.getsockname()[1]

    @property
    def binary_port(self) -> Optional[int]:
        """The bound binary port (``None`` when the plane is disabled)."""
        if self._binary_sock is None:
            return self.config.binary_port
        return self._binary_sock.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.http_port}"

    @property
    def requests_served(self) -> int:
        """Localize requests answered (any status) since :meth:`start`."""
        with self._served_lock:
            return self._requests_served

    def _readiness(self) -> Dict[str, object]:
        return {
            "ready": self._started and not self.admission.shutting_down,
            "queue_depth": self.admission.depth,
            "serving": self.supervisor.serving,
        }

    # -- result plumbing ---------------------------------------------------

    def _on_done(self, future: asyncio.Future, outcome: CaseOutcome) -> None:
        """Fleet completion callback of one request: release, then resolve.

        Runs on whichever worker thread finished the case.  The admission
        slot releases *here* — when the work actually finished — never at
        response time, so a request the handler already gave up on
        (``request_timeout_s``) still frees its slot.
        """
        self.admission.release(outcome.tenant)
        if obs.trace.ACTIVE:
            obs.set_gauge("serving_queue_depth", self.admission.depth)
            obs.set_gauge(
                "serving_tenant_inflight",
                self.admission.tenant_inflight(outcome.tenant),
                tenant=outcome.tenant,
            )
            if outcome.stop_reason == "deadline":
                obs.inc("serving_deadline_stops_total")
        try:
            future.get_loop().call_soon_threadsafe(
                self._resolve_future, future, outcome
            )
        except RuntimeError:
            pass  # the loop closed after a stop() that timed out: nobody waits

    @staticmethod
    def _resolve_future(future: asyncio.Future, outcome: CaseOutcome) -> None:
        # A handler that timed out cancelled its future; skip it.
        if not future.done():
            future.set_result(outcome)

    # -- request handling (shared by both planes) --------------------------

    async def _localize(self, payload: bytes, protocol: str) -> Dict:
        """Run one request payload end to end; always returns a body."""
        started = time.perf_counter()
        request_id: Optional[str] = None
        try:
            request = parse_request(payload, binary=protocol == "binary")
            request_id = request.request_id
            if self._allowed is not None and request.tenant not in self._allowed:
                raise ProtocolError(
                    "unknown_tenant", f"tenant {request.tenant!r} is not served here"
                )
            body = await self._admit_and_run(request)
        except ProtocolError as exc:
            obs.inc("serving_malformed_total", code=exc.code)
            body = error_body(exc.code, exc.message, request_id=request_id)
        elapsed = time.perf_counter() - started
        obs.inc("serving_requests_total", protocol=protocol, status=body["status"])
        obs.observe("serving_request_seconds", elapsed)
        with self._served_lock:
            self._requests_served += 1
        return body

    async def _admit_and_run(self, request: LocalizeRequest) -> Dict:
        verdict = self.admission.try_admit(request.tenant)
        if not verdict.admitted:
            obs.inc("serving_shed_total", reason=verdict.shed_reason)
            return shed_body(
                verdict.shed_reason,
                retry_after_ms=self.admission.retry_after_ms(),
                request_id=request.request_id,
            )
        obs.inc("serving_admitted_total", tier=verdict.tier)
        obs.set_gauge("serving_queue_depth", self.admission.depth)
        obs.set_gauge(
            "serving_tenant_inflight",
            self.admission.tenant_inflight(request.tenant),
            tenant=request.tenant,
        )
        if verdict.tier == "degraded":
            # The degraded band overrides a laxer client deadline but
            # never loosens a tighter one.
            deadline_ms = (
                verdict.deadline_ms
                if request.deadline_ms is None
                else min(request.deadline_ms, verdict.deadline_ms)
            )
            degrade = True
        else:
            deadline_ms = (
                request.deadline_ms
                if request.deadline_ms is not None
                else self.config.default_deadline_ms
            )
            degrade = False
        started = time.perf_counter()
        outcome = await self._run_on_fleet(request, deadline_ms, degrade)
        if outcome is None:
            return error_body(
                "timeout",
                f"no result within {self.config.request_timeout_s}s",
                request_id=request.request_id,
            )
        seconds = time.perf_counter() - started
        tier = outcome.tier if outcome.tier is not None else verdict.tier
        self.slo.record(
            TickOutcome(
                seconds=seconds,
                error=outcome.error is not None,
                degraded=tier not in (None, "full")
                or outcome.stop_reason == "deadline",
                tier=tier,
            )
        )
        if outcome.error is not None:
            return error_body("internal", outcome.error, request_id=request.request_id)
        return ok_body(
            case_id=outcome.case_id,
            tenant=outcome.tenant,
            root_causes=outcome.predicted,
            seconds=outcome.seconds,
            tier=tier,
            stop_reason=outcome.stop_reason,
            shard=outcome.shard,
            request_id=request.request_id,
        )

    async def _run_on_fleet(
        self,
        request: LocalizeRequest,
        deadline_ms: Optional[float],
        degrade: bool,
    ) -> Optional[CaseOutcome]:
        """Submit one admitted case; await its outcome (None = timeout)."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.supervisor.submit(
            request.case,
            tenant=request.tenant,
            deadline_ms=deadline_ms,
            degrade=degrade,
            k=request.k,
            on_done=functools.partial(self._on_done, future),
        )
        try:
            return await asyncio.wait_for(future, timeout=self.config.request_timeout_s)
        except asyncio.TimeoutError:
            # The slot stays held: the case is still running, and
            # _on_done releases it when the fleet finishes (wait_for
            # cancelled the future, so that call resolves nothing).
            return None

    # -- HTTP plane --------------------------------------------------------

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange (``Connection: close`` semantics)."""
        try:
            try:
                await self._http_exchange(reader, writer)
            except ProtocolError as exc:
                obs.inc("serving_malformed_total", code=exc.code)
                await self._http_send(writer, error_body(exc.code, exc.message))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _http_exchange(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read one request head and body, answer it; malformed input raises
        :class:`ProtocolError`, which :meth:`_serve_http` counts and answers."""
        request_line = await _read_head_line(reader)
        if not request_line:
            return
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ProtocolError("bad_request", "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await _read_head_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        parsed = urlparse(target)
        route = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)

        if method == "GET":
            if route in TELEMETRY_ROUTES:
                status, content_type, body = self.telemetry.dispatch(route, query)
                await self._http_raw(writer, status, content_type, body)
                return
            if route == "/localize":
                await self._http_send(
                    writer, error_body("bad_method", "POST a request body to /localize")
                )
                return
            await self._http_send(
                writer,
                error_body(
                    "not_found",
                    f"no route {route!r}; localize via POST /localize, "
                    f"telemetry at {', '.join(TELEMETRY_ROUTES)}",
                ),
            )
            return
        if method != "POST":
            await self._http_send(
                writer, error_body("bad_method", f"method {method} is not supported")
            )
            return
        if route != "/localize":
            await self._http_send(
                writer, error_body("not_found", f"no POST route {route!r}")
            )
            return

        length_text = headers.get("content-length", "")
        # str.isdigit() also accepts digits such as "²" that int() rejects.
        if not (length_text.isascii() and length_text.isdigit()):
            raise ProtocolError(
                "bad_request", "POST /localize requires a decimal Content-Length"
            )
        length = int(length_text)
        if length > self.config.max_payload_bytes:
            # Shed the bytes unread: the declaration alone is the offence.
            raise ProtocolError(
                "oversized_payload",
                f"body declares {length} bytes (cap {self.config.max_payload_bytes})",
            )
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                "truncated", f"body ended at {len(exc.partial)}/{length} bytes"
            )
        body = await self._localize(payload, protocol="http")
        await self._http_send(writer, body)

    async def _http_send(self, writer: asyncio.StreamWriter, body: Dict) -> None:
        data = json.dumps(body).encode("utf-8")
        await self._http_raw(writer, http_status_for(body), "application/json", data)

    @staticmethod
    async def _http_raw(
        writer: asyncio.StreamWriter, status: int, content_type: str, data: bytes
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 403: "Forbidden", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  429: "Too Many Requests", 500: "Internal Server Error",
                  503: "Service Unavailable", 504: "Gateway Timeout"}.get(status, "")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # -- binary plane ------------------------------------------------------

    async def _serve_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve RPSV frames until EOF; a protocol error ends the stream.

        Requests on one connection run sequentially in arrival order —
        an agent wanting parallelism opens parallel connections.  After
        a malformed frame the stream position is untrustworthy, so the
        server answers with an error frame and closes.
        """
        try:
            while True:
                try:
                    frame = await read_frame(reader, self.config.max_payload_bytes)
                except ProtocolError as exc:
                    obs.inc("serving_malformed_total", code=exc.code)
                    obs.inc(
                        "serving_requests_total", protocol="binary", status="error"
                    )
                    writer.write(
                        encode_frame(KIND_ERROR, error_body(exc.code, exc.message))
                    )
                    await writer.drain()
                    return
                if frame is None:
                    return
                kind, payload = frame
                if kind != KIND_REQUEST:
                    obs.inc("serving_malformed_total", code="bad_frame")
                    writer.write(
                        encode_frame(
                            KIND_ERROR,
                            error_body(
                                "bad_frame", f"clients send request frames, got kind {kind}"
                            ),
                        )
                    )
                    await writer.drain()
                    return
                body = await self._localize(payload, protocol="binary")
                writer.write(
                    encode_frame(
                        KIND_RESPONSE if body["status"] != "error" else KIND_ERROR, body
                    )
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _read_head_line(reader: asyncio.StreamReader) -> bytes:
    """One line of an HTTP request head (``b""`` at end of stream).

    A line longer than the stream reader's limit (64 KiB by default) is
    a ``bad_request``: ``readline`` raises ``ValueError`` on the overrun.
    """
    try:
        return await reader.readline()
    except ValueError:
        raise ProtocolError(
            "bad_request", "HTTP request head line longer than the stream limit"
        ) from None
