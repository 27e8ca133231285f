"""Live-server tests: bit-identity, overload shed, deadlines, bad input.

Every test here runs a real :class:`LocalizationServer` on ephemeral
localhost ports and talks to it over the wire — the same code path a
deployment exercises.  Bind-then-report makes that flake-free: ports
are exact the moment ``start()`` returns, so no test ever sleeps
waiting for a listener.
"""

from __future__ import annotations

import base64
import gc
import json
import os
import socket
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro import obs
from repro.core.miner import RAPMiner
from repro.data.io import COLUMNS, case_to_columns, case_to_dict
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.obs.server import TelemetryServer
from repro.fleet import FleetConfig, FleetSupervisor
from repro.serving import (
    AdmissionConfig,
    BinaryServingClient,
    KIND_REQUEST,
    LocalizationServer,
    ServingClient,
    ServingConfig,
    encode_frame,
)
from repro.serving.protocol import (
    FRAME_HEADER,
    HEAD_LENGTH,
    KIND_ERROR,
    MAGIC,
    PROTOCOL_VERSION,
)


@pytest.fixture(scope="module")
def cases():
    return generate_rapmd(
        cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=4, n_days=2, seed=9)
    )


@pytest.fixture(scope="module")
def serial(cases):
    miner = RAPMiner()
    return {
        case.case_id: [
            str(p) for p in miner.localize(case.dataset, len(case.true_raps))
        ]
        for case in cases
    }


class SlowMiner:
    """A localizer with a fixed floor latency (overload/timeout tests)."""

    name = "SlowMiner"

    def __init__(self, delay: float):
        self.delay = delay
        self._inner = RAPMiner()

    def localize(self, dataset, k=None):
        time.sleep(self.delay)
        return self._inner.localize(dataset, k)


@contextmanager
def serve(method=None, fleet: FleetConfig = None, **serving_kwargs):
    supervisor = FleetSupervisor(
        method if method is not None else RAPMiner(),
        config=fleet if fleet is not None else FleetConfig(),
    )
    server = LocalizationServer(supervisor, ServingConfig(**serving_kwargs))
    with server:
        yield server


class TestBitIdentity:
    def test_http_matches_serial(self, cases, serial):
        with serve() as server:
            client = ServingClient("127.0.0.1", server.http_port)
            for case in cases:
                body = client.localize(case, k=len(case.true_raps))
                assert body["status"] == "ok"
                assert body["http_status"] == 200
                assert body["tier"] == "full"
                assert body["root_causes"] == serial[case.case_id]

    def test_binary_matches_serial(self, cases, serial):
        with serve() as server:
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                for case in cases:
                    body = client.localize(case, k=len(case.true_raps))
                    assert body["status"] == "ok"
                    assert body["root_causes"] == serial[case.case_id]

    def test_concurrent_requests_stay_bit_exact(self, cases, serial):
        """Many tenants firing at once never cross-contaminate results."""
        with serve(fleet=FleetConfig(shards_per_layout=2)) as server:
            client = ServingClient("127.0.0.1", server.http_port)

            def shoot(i):
                case = cases[i % len(cases)]
                return case.case_id, client.localize(
                    case, tenant=f"t{i % 3}", k=len(case.true_raps)
                )

            with ThreadPoolExecutor(max_workers=8) as pool:
                for case_id, body in pool.map(shoot, range(24)):
                    assert body["status"] == "ok"
                    assert body["root_causes"] == serial[case_id]
            assert server.admission.depth == 0

    def test_request_id_echoes(self, cases):
        with serve() as server:
            client = ServingClient("127.0.0.1", server.http_port)
            body = client.localize(cases[0], k=1, request_id="tick-42")
            assert body["request_id"] == "tick-42"


class TestOverload:
    def test_sheds_typed_and_serves_the_admitted(self, cases, serial):
        """Past the hard cap requests shed with a typed code, instantly;
        everything admitted still answers bit-exact."""
        admission = AdmissionConfig(
            max_queue_depth=2, soft_queue_depth=None, tenant_inflight_limit=2
        )
        with serve(method=SlowMiner(0.3), admission=admission) as server:
            client = ServingClient("127.0.0.1", server.http_port)
            case = cases[0]

            def shoot(i):
                return client.localize(case, k=len(case.true_raps))

            with ThreadPoolExecutor(max_workers=8) as pool:
                bodies = list(pool.map(shoot, range(8)))
            ok = [b for b in bodies if b["status"] == "ok"]
            shed = [b for b in bodies if b["status"] == "shed"]
            assert ok and shed  # overload really happened, service persisted
            assert len(ok) + len(shed) == len(bodies)  # nothing errored
            for body in ok:
                assert body["root_causes"] == serial[case.case_id]
            for body in shed:
                assert body["code"] in ("queue_full", "tenant_quota")
                assert body["http_status"] in (429, 503)
                assert body["retry_after_ms"] > 0
            # Slots drain fully once the work finishes: no leaked depth.
            assert server.admission.depth == 0
            followup = client.localize(case, k=1)
            assert followup["status"] == "ok"

    def test_tenant_quota_shed_names_the_reason(self, cases):
        admission = AdmissionConfig(
            max_queue_depth=16, soft_queue_depth=None, tenant_inflight_limit=1
        )
        with serve(method=SlowMiner(0.4), admission=admission) as server:
            client = ServingClient("127.0.0.1", server.http_port)

            def shoot(tenant):
                return client.localize(cases[0], tenant=tenant, k=1)

            with ThreadPoolExecutor(max_workers=4) as pool:
                bodies = list(pool.map(shoot, ["hog", "hog", "hog", "hog"]))
            reasons = {b["code"] for b in bodies if b["status"] == "shed"}
            assert reasons == {"tenant_quota"}

    def test_degraded_band_pins_a_deadline(self, cases):
        """Between soft and hard caps requests run degraded, not shed."""
        admission = AdmissionConfig(
            max_queue_depth=8,
            soft_queue_depth=1,
            tenant_inflight_limit=8,
            degraded_deadline_ms=30.0,
        )
        with serve(admission=admission, fleet=FleetConfig(shards_per_layout=1)) as server:
            client = ServingClient("127.0.0.1", server.http_port)

            def shoot(i):
                return client.localize(cases[i % len(cases)], k=1)

            with ThreadPoolExecutor(max_workers=6) as pool:
                bodies = list(pool.map(shoot, range(12)))
            tiers = {b.get("tier") for b in bodies if b["status"] == "ok"}
            assert all(b["status"] == "ok" for b in bodies)
            # With depth piling past the soft cap some requests must have
            # taken the degraded band (full ones are fine too: depth
            # fluctuates as results land).
            assert "degraded" in tiers or "full" in tiers

    def test_shutdown_sheds_shutting_down(self, cases):
        with serve() as server:
            client = ServingClient("127.0.0.1", server.http_port)
            server.admission.begin_shutdown()
            body = client.localize(cases[0], k=1)
            assert body["status"] == "shed"
            assert body["code"] == "shutting_down"


class TestDeadlines:
    def test_tight_deadline_returns_partial_not_error(self, cases):
        with obs.capture() as collector:
            with serve() as server:
                client = ServingClient("127.0.0.1", server.http_port)
                body = client.localize(cases[0], k=3, deadline_ms=0.001)
                assert body["status"] == "ok"
                assert body["stop_reason"] == "deadline"
        assert collector.metrics.value("serving_deadline_stops_total") == 1

    def test_roomy_deadline_matches_serial(self, cases, serial):
        with serve() as server:
            client = ServingClient("127.0.0.1", server.http_port)
            case = cases[0]
            body = client.localize(case, k=len(case.true_raps), deadline_ms=60_000)
            assert body["status"] == "ok"
            assert body["stop_reason"] != "deadline"
            assert body["root_causes"] == serial[case.case_id]

    def test_server_side_timeout_is_typed(self, cases):
        with serve(method=SlowMiner(1.0), request_timeout_s=0.1) as server:
            client = ServingClient("127.0.0.1", server.http_port)
            body = client.localize(cases[0], k=1)
            assert body["status"] == "error"
            assert body["code"] == "timeout"
            assert body["http_status"] == 504
            # The abandoned slot still releases when the fleet finishes.
            deadline = time.time() + 10
            while server.admission.depth and time.time() < deadline:
                time.sleep(0.02)
            assert server.admission.depth == 0

    def test_timed_out_requests_leave_no_parked_outcome(self, cases, serial):
        """Late results release their slots and leave the server serving."""
        tenant = {"tenant": "edge"}
        method = SlowMiner(0.3)
        with obs.capture() as collector:
            # One worker: results land one at a time, so the gauges'
            # last writes are ordered.
            with serve(
                method=method,
                fleet=FleetConfig(shards_per_layout=1),
                request_timeout_s=0.05,
            ) as server:
                client = ServingClient("127.0.0.1", server.http_port)
                for __ in range(3):
                    body = client.localize(cases[0], k=1, tenant="edge")
                    assert body["code"] == "timeout"
                metrics = collector.metrics
                # The abandoned slots are still held while the cases run.
                assert metrics.value("serving_queue_depth") >= 1
                assert metrics.value("serving_tenant_inflight", tenant) >= 1
                deadline = time.time() + 10
                while server.admission.depth and time.time() < deadline:
                    time.sleep(0.02)
                assert server.admission.depth == 0
                assert server.admission.tenant_inflight("edge") == 0
                assert server.requests_served == 3
                assert metrics.value("serving_queue_depth") == 0
                assert metrics.value("serving_tenant_inflight", tenant) == 0
                assert metrics.get("serving_request_seconds").count == 3
                # A fast follow-up, with room to answer, is served.
                method.delay = 0.0
                server.config.request_timeout_s = 30.0
                case = cases[1]
                body = client.localize(case, k=len(case.true_raps), tenant="edge")
                assert body["status"] == "ok"
                assert body["root_causes"] == serial[case.case_id]
                assert server.requests_served == 4


def _edit_bytes(column, edit):
    """*column* (a packed column object) with its raw bytes edited."""
    raw = bytearray(base64.b64decode(column["b64"]))
    edit(raw)
    return {"dtype": column["dtype"], "b64": base64.b64encode(bytes(raw)).decode()}


def _listed(column, edit):
    """*column* (a packed column object) in list form, with its items edited."""
    items = np.frombuffer(base64.b64decode(column["b64"]), column["dtype"]).tolist()
    edit(items)
    return items


#: Column defects: each must be a ``bad_case`` that never reaches the
#: fleet.  Every edit takes and returns a packed case dict; the ``list_``
#: ones send one column in list form.
MALFORMED_COLUMNS = {
    "wrong_value_dtype": lambda d: {**d, "v": {**d["v"], "dtype": "<f4"}},
    "codes_wider_than_schema": lambda d: {**d, "codes": {**d["codes"], "dtype": "<u2"}},
    "not_base64": lambda d: {**d, "f": {**d["f"], "b64": "*not base64*"}},
    "partial_row": lambda d: {**d, "v": _edit_bytes(d["v"], lambda raw: raw.pop())},
    "one_row_short": lambda d: {
        **d, "f": _edit_bytes(d["f"], lambda raw: raw.__delitem__(slice(-8, None)))
    },
    "label_two": lambda d: {
        **d, "labels": _edit_bytes(d["labels"], lambda raw: raw.__setitem__(0, 2))
    },
    "missing_b64": lambda d: {**d, "labels": {"dtype": d["labels"]["dtype"]}},
    "extra_key": lambda d: {**d, "codes": {**d["codes"], "shape": [1, 4]}},
    "list_label_two": lambda d: {
        **d, "labels": _listed(d["labels"], lambda items: items.__setitem__(0, 2))
    },
    "list_float_code": lambda d: {
        **d, "codes": _listed(d["codes"], lambda items: items.__setitem__(0, 0.5))
    },
    "list_string_value": lambda d: {
        **d, "v": _listed(d["v"], lambda items: items.__setitem__(0, "1.5"))
    },
}


def _retile(head, columns):
    """Lay the column buffers out back to back and describe them in *head*."""
    offset = 0
    for key in COLUMNS:
        head[key].update(offset=offset, length=len(columns[key]))
        offset += len(columns[key])


def _set_column(key, edit):
    """A frame edit that changes column *key*'s bytes and re-tiles the columns."""

    def apply(head, columns):
        raw = bytearray(columns[key])
        edit(raw)
        columns[key] = bytes(raw)
        _retile(head, columns)

    return apply


def _set_dtype(key, dtype):
    """A frame edit that declares *dtype* for column *key*."""
    return lambda head, columns: head[key].update(dtype=dtype)


def _frame_payload(case, edit=None, head_bytes=None):
    """An RPSV request payload for *case* (k=1), edited.

    *edit(head, columns)* changes the JSON head and the column buffers
    (a dict in wire order) in place; the payload is laid out from what
    it leaves.  *head_bytes* replaces the encoded head outright.
    """
    head, buffers = case_to_columns(case)
    head["k"] = 1
    columns = dict(zip(COLUMNS, buffers))
    if edit is not None:
        edit(head, columns)
    if head_bytes is None:
        head_bytes = json.dumps(head).encode()
    return HEAD_LENGTH.pack(len(head_bytes)) + head_bytes + b"".join(columns.values())


def _request_frame(payload):
    return FRAME_HEADER.pack(MAGIC, PROTOCOL_VERSION, KIND_REQUEST, len(payload)) + payload


def _describe(key, **changes):
    """A frame edit that changes column *key*'s descriptor."""
    return lambda head, columns: head[key].update(changes)


#: The binary plane's request defects, by name: every MALFORMED_COLUMNS
#: defect mirrored on the raw columns, then those only a frame can have.
#: Each value maps a case to a request payload.
MALFORMED_FRAMES = {
    "wrong_value_dtype": lambda c: _frame_payload(c, _set_dtype("v", "<f4")),
    "codes_wider_than_schema": lambda c: _frame_payload(c, _set_dtype("codes", "<u2")),
    "not_base64": lambda c: _frame_payload(c, _describe("f", offset="0")),
    "partial_row": lambda c: _frame_payload(c, _set_column("v", lambda raw: raw.pop())),
    "one_row_short": lambda c: _frame_payload(
        c, _set_column("f", lambda raw: raw.__delitem__(slice(-8, None)))
    ),
    "label_two": lambda c: _frame_payload(
        c, _set_column("labels", lambda raw: raw.__setitem__(0, 2))
    ),
    "missing_b64": lambda c: _frame_payload(
        c, lambda head, columns: head["labels"].pop("length")
    ),
    "extra_key": lambda c: _frame_payload(c, _describe("codes", shape=[1, 4])),
    "list_label_two": lambda c: _frame_payload(
        c, _set_column("labels", lambda raw: raw.__setitem__(-1, 255))
    ),
    "list_float_code": lambda c: _frame_payload(c, _set_dtype("codes", "<f8")),
    "list_string_value": lambda c: _frame_payload(c, _set_dtype("v", "<U3")),
    # Frame-only defects.
    "head_length_past_payload": lambda c: HEAD_LENGTH.pack(1 << 30) + _frame_payload(c)[4:],
    "head_not_json": lambda c: _frame_payload(c, head_bytes=b"{nope"),
    "head_not_an_object": lambda c: _frame_payload(c, head_bytes=b"[1, 2]"),
    "unknown_head_field": lambda c: _frame_payload(
        c, lambda head, columns: head.update(shape=[1])
    ),
    "offset_out_of_range": lambda c: _frame_payload(c, _describe("labels", offset=1 << 40)),
    "length_out_of_range": lambda c: _frame_payload(
        c, lambda head, columns: head["labels"].update(length=head["labels"]["length"] + 8)
    ),
    "negative_length": lambda c: _frame_payload(c, _describe("v", length=-8)),
    "overlapping_columns": lambda c: _frame_payload(
        c, lambda head, columns: head["v"].update(offset=head["v"]["offset"] - 1)
    ),
    "gap_between_columns": lambda c: _frame_payload(
        c, lambda head, columns: head["f"].update(offset=head["f"]["offset"] + 1)
    ),
    "trailing_bytes": lambda c: _frame_payload(c) + b"\x00",
    "missing_column": lambda c: _frame_payload(
        c, lambda head, columns: (head.pop("f"), columns.pop("f"))
    ),
}


class TestMalformedInput:
    """Garbage off the wire gets a typed error; the server never wedges."""

    def test_http_bad_json(self, cases):
        with serve() as server:
            client = ServingClient("127.0.0.1", server.http_port)
            status, __, data = client.request("POST", "/localize", b"{nope")
            assert status == 400
            assert json.loads(data)["code"] == "bad_json"
            assert client.localize(cases[0], k=1)["status"] == "ok"

    def test_http_bad_schema(self, cases):
        with serve() as server:
            client = ServingClient("127.0.0.1", server.http_port)
            status, __, data = client.request(
                "POST", "/localize", json.dumps({"case": {"schema": 1}}).encode()
            )
            assert json.loads(data)["code"] == "bad_case"
            assert client.localize(cases[0], k=1)["status"] == "ok"

    def test_http_oversized_payload(self, cases):
        with serve(max_payload_bytes=2048) as server:
            client = ServingClient("127.0.0.1", server.http_port)
            status, __, data = client.request("POST", "/localize", b"x" * 4096)
            assert status == 413
            assert json.loads(data)["code"] == "oversized_payload"
            assert server.admission.depth == 0

    def test_http_truncated_body(self, cases):
        """A Content-Length bigger than the bytes sent gets 'truncated'."""
        with serve() as server:
            with socket.create_connection(
                ("127.0.0.1", server.http_port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /localize HTTP/1.1\r\n"
                    b"Content-Length: 500\r\n\r\n"
                    b"only a few bytes"
                )
                sock.shutdown(socket.SHUT_WR)
                response = sock.recv(65536)
            assert b"truncated" in response
            client = ServingClient("127.0.0.1", server.http_port)
            assert client.localize(cases[0], k=1)["status"] == "ok"

    @pytest.mark.parametrize(
        "head",
        [
            # "\xb2" is latin-1 "²": str.isdigit() accepts it, int() does not.
            b"POST /localize HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n",
            # Lines longer than the stream reader's 64 KiB limit.
            b"POST /localize HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
            b"POST /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["non_ascii_digit_length", "header_over_limit", "request_line_over_limit"],
    )
    def test_http_bad_head_is_a_counted_bad_request(self, cases, head):
        with obs.capture() as collector:
            with serve() as server:
                with socket.create_connection(
                    ("127.0.0.1", server.http_port), timeout=10
                ) as sock:
                    sock.sendall(head)
                    sock.shutdown(socket.SHUT_WR)
                    chunks = []
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        chunks.append(chunk)
                response = b"".join(chunks)
                assert response.startswith(b"HTTP/1.1 400 ")
                body = json.loads(response.split(b"\r\n\r\n", 1)[1])
                assert body["code"] == "bad_request"
                client = ServingClient("127.0.0.1", server.http_port)
                assert client.localize(cases[0], k=1)["status"] == "ok"
            assert collector.metrics.value(
                "serving_malformed_total", {"code": "bad_request"}
            ) == 1.0

    @pytest.mark.parametrize("defect", sorted(MALFORMED_COLUMNS))
    def test_malformed_packed_column_is_bad_case_before_the_fleet(
        self, cases, defect, monkeypatch
    ):
        body = {"case": MALFORMED_COLUMNS[defect](case_to_dict(cases[0])), "k": 1}
        with serve() as server:
            submitted = []
            monkeypatch.setattr(
                server.supervisor, "submit", lambda *a, **kw: submitted.append(a)
            )
            client = ServingClient("127.0.0.1", server.http_port)
            status, __, data = client.request(
                "POST", "/localize", json.dumps(body).encode()
            )
            assert status == 400
            assert json.loads(data)["code"] == "bad_case"
            assert submitted == []
            assert server.admission.depth == 0

    def test_every_column_defect_is_mirrored_on_the_binary_plane(self):
        assert set(MALFORMED_COLUMNS) <= set(MALFORMED_FRAMES)

    @pytest.mark.parametrize("defect", sorted(MALFORMED_FRAMES))
    def test_malformed_frame_is_refused_before_the_fleet(
        self, cases, serial, defect, monkeypatch
    ):
        """A bad request frame gets a typed error frame; the connection
        stays usable and the next valid frame is served."""
        frame = _request_frame(MALFORMED_FRAMES[defect](cases[0]))
        with serve() as server:
            submitted = []
            submit = server.supervisor.submit

            def recording_submit(case, **kwargs):
                submitted.append(case.case_id)
                return submit(case, **kwargs)

            monkeypatch.setattr(server.supervisor, "submit", recording_submit)
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                client.send_raw(frame)
                kind, payload = client._read_frame()
                body = json.loads(payload)
                assert kind == KIND_ERROR
                assert body["code"] in ("bad_case", "bad_request")
                if defect in MALFORMED_COLUMNS:
                    assert body["code"] == "bad_case"
                assert submitted == []
                assert server.admission.depth == 0
                case = cases[1]
                body = client.localize(case, k=len(case.true_raps))
                assert body["status"] == "ok"
                assert body["root_causes"] == serial[case.case_id]
                assert submitted == [case.case_id]

    def test_binary_version_1_frame_is_refused_and_closed(self, cases):
        """The JSON request frames of protocol version 1 get a kind-3
        bad_frame and a close, and never reach the fleet."""
        body = json.dumps({"case": case_to_dict(cases[0]), "k": 1}).encode()
        frame = FRAME_HEADER.pack(MAGIC, 1, KIND_REQUEST, len(body)) + body
        with serve() as server:
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                client.send_raw(frame)
                kind, payload = client._read_frame()
                assert kind == KIND_ERROR
                assert json.loads(payload)["code"] == "bad_frame"
                try:
                    assert client._sock.recv(1) == b""
                except ConnectionResetError:
                    pass  # closed with request bytes still unread
            assert server.admission.depth == 0
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                assert client.localize(cases[0], k=1)["status"] == "ok"

    def test_http_unknown_tenant(self, cases):
        with serve(tenants=["edge-eu"]) as server:
            client = ServingClient("127.0.0.1", server.http_port)
            body = client.localize(cases[0], tenant="intruder", k=1)
            assert body["status"] == "error"
            assert body["code"] == "unknown_tenant"
            assert body["http_status"] == 403
            assert client.localize(cases[0], tenant="edge-eu", k=1)["status"] == "ok"

    def test_http_routes_and_methods(self):
        with serve() as server:
            client = ServingClient("127.0.0.1", server.http_port)
            status, __, data = client.request("GET", "/nope")
            assert status == 404 and json.loads(data)["code"] == "not_found"
            status, __, data = client.request("GET", "/localize")
            assert status == 405 and json.loads(data)["code"] == "bad_method"
            status, __, data = client.request("POST", "/metrics", b"{}")
            assert status == 404 and json.loads(data)["code"] == "not_found"

    def test_binary_bad_magic(self, cases):
        with serve() as server:
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                client.send_raw(b"XXXX" + bytes(6) + b"junk")
                assert client.read_response()["code"] == "bad_frame"
            # The poisoned connection died; a fresh one still serves.
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                assert client.localize(cases[0], k=1)["status"] == "ok"

    def test_binary_truncated_frame(self, cases):
        with serve() as server:
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                header = FRAME_HEADER.pack(MAGIC, PROTOCOL_VERSION, KIND_REQUEST, 100)
                client.send_raw(header + b"short")
                client._sock.shutdown(socket.SHUT_WR)
                assert client.read_response()["code"] == "truncated"
            assert server.admission.depth == 0

    def test_binary_oversized_declaration(self, cases):
        with serve(max_payload_bytes=2048) as server:
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                header = FRAME_HEADER.pack(
                    MAGIC, PROTOCOL_VERSION, KIND_REQUEST, 1 << 20
                )
                client.send_raw(header)
                assert client.read_response()["code"] == "oversized_payload"

    def test_binary_wrong_kind(self, cases):
        with serve() as server:
            with BinaryServingClient("127.0.0.1", server.binary_port) as client:
                client.send_raw(encode_frame(2, {"status": "ok"}))  # response kind
                assert client.read_response()["code"] == "bad_frame"


class TestTelemetryPlane:
    def test_routes_mounted_on_serving_port(self, cases):
        with obs.capture():
            with serve() as server:
                client = ServingClient("127.0.0.1", server.http_port)
                client.localize(cases[0], k=1)
                text = client.metrics()
                assert "serving_requests_total" in text
                assert "serving_admitted_total" in text
                status, __, data = client.request("GET", "/healthz")
                assert status == 200 and json.loads(data)["status"] == "ok"
                status, __, data = client.request("GET", "/readyz")
                body = json.loads(data)
                assert status == 200 and body["ready"] is True
        # After stop the readiness probe reports not ready.
        assert server._readiness()["ready"] is False

    def test_slo_tracker_fed_per_request(self, cases):
        with serve() as server:
            client = ServingClient("127.0.0.1", server.http_port)
            client.localize(cases[0], k=1)
            client.localize(cases[1], k=1)
            assert server.slo.ticks_recorded == 2

    def test_slo_gauges_export_when_metrics_is_read(self, cases, monkeypatch):
        """Requests feed the tracker; only a /metrics read writes ``slo_*``."""
        from repro.obs.slo import SLOTracker

        exports = []
        real_export = SLOTracker.export

        def counting_export(tracker, registry):
            exports.append(tracker)
            real_export(tracker, registry)

        monkeypatch.setattr(SLOTracker, "export", counting_export)
        requests = 5
        with obs.capture(ring_only=True):
            with serve() as server:
                client = ServingClient("127.0.0.1", server.http_port)
                for index in range(requests):
                    client.localize(cases[index % len(cases)], k=1)
                assert server.slo.ticks_recorded == requests
                assert exports == []  # no per-request export
                text = client.metrics()
                assert exports == [server.slo]
                (row,) = [r for r in server.slo.snapshot() if r["objective"] == "tick_success"]
        samples = {}
        for line in text.splitlines():
            if line.startswith("slo_"):
                series, value = line.rsplit(" ", 1)
                samples[series] = float(value)
        labels = 'objective="tick_success"'
        assert samples[f'slo_ticks_total{{{labels},outcome="good"}}'] == row["good_total"]
        assert samples[f'slo_ticks_total{{{labels},outcome="bad"}}'] == row["bad_total"]
        assert row["good_total"] + row["bad_total"] == requests
        for window, state in row["windows"].items():
            windowed = f'{labels},window="{window}"'
            assert samples[f"slo_good_fraction{{{windowed}}}"] == pytest.approx(
                state["good_fraction"]
            )
            assert samples[f"slo_burn_rate{{{windowed}}}"] == pytest.approx(
                state["burn_rate"]
            )

    def test_admission_gauges_read_the_ledger_at_scrape(self, cases):
        with obs.capture(ring_only=True) as collector:
            with serve() as server:
                client = ServingClient("127.0.0.1", server.http_port)
                client.localize(cases[0], k=1, tenant="edge")
                deadline = time.time() + 10
                while server.admission.depth and time.time() < deadline:
                    time.sleep(0.02)
                text = client.metrics()
        assert "serving_queue_depth 0" in text
        assert 'serving_tenant_inflight{tenant="edge"} 0' in text
        assert collector.metrics.family_total("fleet_queue_depth") == 0

    def test_shed_and_malformed_counted(self, cases):
        with obs.capture():
            admission = AdmissionConfig(max_queue_depth=1, soft_queue_depth=None)
            with serve(method=SlowMiner(0.3), admission=admission) as server:
                client = ServingClient("127.0.0.1", server.http_port)
                with ThreadPoolExecutor(max_workers=3) as pool:
                    list(pool.map(lambda _: client.localize(cases[0], k=1), range(3)))
                client.request("POST", "/localize", b"junk")
                text = client.metrics()
                assert "serving_shed_total" in text
                assert 'code="bad_json"' in text


class TestPortBinding:
    """Regression: ephemeral ports are exact and live at start() return."""

    def test_ports_connectable_immediately(self):
        for _ in range(3):
            with serve() as server:
                assert server.http_port != 0
                assert server.binary_port != 0
                assert server.http_port != server.binary_port
                # No sleep, no retry: connect the instant start() returns.
                for port in (server.http_port, server.binary_port):
                    with socket.create_connection(("127.0.0.1", port), timeout=5):
                        pass

    def test_telemetry_server_port_exact_after_start(self):
        for _ in range(3):
            server = TelemetryServer(port=0)
            with server:
                assert server.port != 0
                with socket.create_connection(("127.0.0.1", server.port), timeout=5):
                    pass

    def test_both_planes_coexist_on_ephemeral_ports(self):
        telemetry = TelemetryServer(port=0)
        with telemetry:
            with serve() as serving:
                ports = {telemetry.port, serving.http_port, serving.binary_port}
                assert len(ports) == 3  # all distinct, all bound

    def test_binary_plane_optional(self):
        with serve(binary_port=None) as server:
            assert server.binary_port is None
            client = ServingClient("127.0.0.1", server.http_port)
            status, __, __ = client.request("GET", "/healthz")
            assert status == 200

    def test_stop_closes_every_accepted_socket(self, monkeypatch):
        """Regression: a connection accepted just before stop() is closed.

        Stopping right after a client connects used to close the listener
        while asyncio was still wrapping the accepted socket, which then
        outlived the server and surfaced as a ResourceWarning.  asyncio's
        debug mode slows that accept path, so the window opens every time.
        """
        monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with serve():  # lazily opened process-wide fds settle first
                pass
            gc.collect()
            start = open_fds()
            for _ in range(5):
                with serve() as server:
                    for port in (server.http_port, server.binary_port):
                        with socket.create_connection(("127.0.0.1", port), timeout=5):
                            pass
            gc.collect()
            assert open_fds() == start
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]

    def test_stop_closes_an_idle_connection(self):
        """A binary stream left open across stop() is closed by the server."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with serve() as server:
                client = socket.create_connection(
                    ("127.0.0.1", server.binary_port), timeout=30
                )
            with client:
                assert client.recv(1) == b""  # server side closed, not reset
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]

    def test_detached_dispatch(self):
        """TelemetryServer.dispatch serves routes without a socket."""
        server = TelemetryServer()
        status, content_type, body = server.dispatch("/healthz")
        assert status == 200
        assert json.loads(body)["uptime_s"] >= 0


class TestLifecycle:
    def test_stop_is_idempotent_and_restartable(self, cases):
        supervisor = FleetSupervisor(RAPMiner(), config=FleetConfig())
        server = LocalizationServer(supervisor, ServingConfig())
        server.start()
        ServingClient("127.0.0.1", server.http_port).localize(cases[0], k=1)
        server.stop()
        server.stop()  # no-op
        # The same supervisor serves again on a fresh server.
        second = LocalizationServer(supervisor, ServingConfig())
        with second:
            body = ServingClient("127.0.0.1", second.http_port).localize(
                cases[0], k=1
            )
            assert body["status"] == "ok"

    def test_double_start_rejected(self):
        supervisor = FleetSupervisor(RAPMiner(), config=FleetConfig())
        server = LocalizationServer(supervisor, ServingConfig())
        with server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_inflight_requests_answered_during_stop(self, cases):
        """stop() drains: an admitted slow request still gets its answer."""
        with serve(method=SlowMiner(0.3)) as server:
            client = ServingClient("127.0.0.1", server.http_port)
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(client.localize, cases[0], None, 1)
                time.sleep(0.1)  # let it get admitted
                server.stop()
                body = future.result(timeout=30)
                assert body["status"] == "ok"
