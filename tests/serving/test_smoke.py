"""End-to-end smoke: the ``repro serve`` process over a real wire.

This is the ``make serve-smoke`` suite: boot the CLI server in a child
process, submit cases over HTTP (packed and list-form columns) and
raw-column RPSV frames, refuse a protocol-1 frame, verify the answers
bit-exact against an in-process run,
scrape ``/metrics`` off the same port, and shut down cleanly — both by
request count and by SIGINT.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time

import pytest

from repro.core.miner import RAPMiner
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.data.io import case_to_dict
from repro.serving import (
    KIND_ERROR,
    KIND_REQUEST,
    MAGIC,
    PROTOCOL_VERSION,
    BinaryServingClient,
    ServingClient,
    encode_frame,
    localize_payload,
)
from repro.serving.protocol import FRAME_HEADER
from tests.conftest import list_form_dict

SERVE_ARGS = [
    sys.executable,
    "-u",
    "-m",
    "repro.cli",
    "serve",
    "--port",
    "0",
    "--binary-port",
    "0",
    "--shards",
    "1",
]


@pytest.fixture(scope="module")
def cases():
    return generate_rapmd(
        cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=3, n_days=2, seed=9)
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


def start_server(extra_args=()):
    """Spawn ``repro serve`` and parse the bound ports off its banner."""
    process = subprocess.Popen(
        SERVE_ARGS + list(extra_args),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=str(__import__("pathlib").Path(__file__).resolve().parents[2]),
    )
    banner = process.stdout.readline()
    # "serving: POST http://127.0.0.1:PORT/localize ... binary frames on port P"
    if "serving: POST http://" not in banner:
        stop(process)
    assert "serving: POST http://" in banner, banner
    http_port = int(banner.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])
    binary_port = None
    if "binary frames on port" in banner:
        binary_port = int(banner.rsplit("port", 1)[1].split()[0])
    process.stdout.readline()  # the admission banner line
    return process, http_port, binary_port


def drain(process, timeout=60):
    """Read the server's output to EOF, close the pipe, reap the exit code."""
    with process.stdout:
        out = process.stdout.read()
    code = process.wait(timeout=timeout)
    return code, out


def stop(process):
    """Failure path: kill the server if it still runs and close its pipe."""
    if process.poll() is None:
        process.kill()
    process.wait(timeout=30)
    process.stdout.close()


def refused_version_1_frame(port, case):
    """Send one protocol-1 request frame; return the error frame's kind,
    its body, and whether the server then closed the connection."""
    body = json.dumps({"case": case_to_dict(case), "k": 1}).encode()
    frame = FRAME_HEADER.pack(MAGIC, 1, KIND_REQUEST, len(body)) + body
    with BinaryServingClient("127.0.0.1", port) as client:
        client.send_raw(frame)
        kind, payload = client._read_frame()
        try:
            closed = client._sock.recv(1) == b""
        except ConnectionResetError:
            closed = True  # closed with request bytes still unread
    return kind, json.loads(payload), closed


def test_serve_smoke_end_to_end(cases, serial):
    """Wire submission, bit-identity, metrics scrape, count-based exit."""
    n_requests = 2 * len(cases) + 1
    process, http_port, binary_port = start_server(
        ["--max-requests", str(n_requests)]
    )
    try:
        client = ServingClient("127.0.0.1", http_port)
        for case in cases:
            body = client.localize(case, k=len(case.true_raps), request_id=case.case_id)
            assert body["status"] == "ok"
            assert body["root_causes"] == serial[case.case_id]
            assert body["request_id"] == case.case_id
        # A hand-written body sends the leaf-table columns as number lists.
        listed = cases[1]
        status, __, data = client.request(
            "POST",
            "/localize",
            json.dumps({"case": list_form_dict(listed), "k": len(listed.true_raps)}).encode(),
        )
        assert status == 200
        assert json.loads(data)["root_causes"] == serial[listed.case_id]
        # The telemetry plane shares the port and sees the capture.
        text = client.metrics()
        assert "serving_requests_total" in text
        assert 'protocol="http"' in text
        # A protocol-1 frame is refused with a kind-3 bad_frame and a
        # close; it is not a served request.
        kind, body, closed = refused_version_1_frame(binary_port, cases[0])
        assert (kind, body["code"], closed) == (KIND_ERROR, "bad_frame", True)
        # Every case once more as raw-column frames over one connection;
        # the last reaches --max-requests, and the process drains its
        # fleet and exits 0 on its own.
        with BinaryServingClient("127.0.0.1", binary_port) as binary:
            for case in cases:
                frame = encode_frame(
                    KIND_REQUEST, localize_payload(case, k=len(case.true_raps))
                )
                assert frame[4] == PROTOCOL_VERSION == 2
                binary.send_raw(frame)
                body = binary.read_response()
                assert body["status"] == "ok"
                assert body["root_causes"] == serial[case.case_id]
        code, out = drain(process)
        assert code == 0, out
        assert f"served {n_requests} request(s)" in out
    finally:
        stop(process)


def test_serve_smoke_sigint_drains_cleanly(cases):
    """Ctrl-C mid-service drains admitted work and exits 0."""
    process, http_port, __ = start_server()
    try:
        client = ServingClient("127.0.0.1", http_port)
        assert client.localize(cases[0], k=1)["status"] == "ok"
        process.send_signal(signal.SIGINT)
        code, out = drain(process)
        assert code == 0, out
        assert "draining" in out
        assert "served 1 request(s)" in out
    finally:
        stop(process)


def test_serve_smoke_tenant_allowlist(cases):
    process, http_port, __ = start_server(["--tenants", "edge-eu"])
    try:
        client = ServingClient("127.0.0.1", http_port)
        refused = client.localize(cases[0], tenant="other", k=1)
        assert refused["status"] == "error"
        assert refused["code"] == "unknown_tenant"
        served = client.localize(cases[0], tenant="edge-eu", k=1)
        assert served["status"] == "ok"
    finally:
        process.send_signal(signal.SIGINT)
        code, __ = drain(process)
        assert code == 0
