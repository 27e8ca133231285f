"""Protocol tests: framing, request validation, typed codes."""

from __future__ import annotations

import json

import pytest

from repro.data.io import case_to_dict
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.serving import protocol
from tests.conftest import list_form_dict
from repro.serving.protocol import (
    ERROR_CODES,
    FRAME_HEADER,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAGIC,
    ProtocolError,
    SHED_CODES,
    decode_frame,
    encode_frame,
    error_body,
    http_status_for,
    ok_body,
    parse_request,
    shed_body,
)


@pytest.fixture(scope="module")
def case():
    return generate_rapmd(
        cdn_schema(3, 2, 2), RAPMDConfig(n_cases=1, n_days=1, seed=5)
    )[0]


def request_bytes(case, **extra) -> bytes:
    return json.dumps({"case": case_to_dict(case), **extra}).encode()


class TestFraming:
    def test_round_trip(self):
        payload = {"hello": "world", "n": 3}
        kind, body = decode_frame(encode_frame(KIND_REQUEST, payload))
        assert kind == KIND_REQUEST
        assert json.loads(body) == payload

    def test_response_and_error_kinds_encode(self):
        for kind in (protocol.KIND_RESPONSE, protocol.KIND_ERROR):
            got, __ = decode_frame(encode_frame(kind, {}))
            assert got == kind

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_frame(7, {})

    def test_truncated_header(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"RPS")
        assert excinfo.value.code == "truncated"

    def test_truncated_payload(self):
        frame = encode_frame(KIND_REQUEST, {"a": 1})
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(frame[:-2])
        assert excinfo.value.code == "truncated"

    def test_bad_magic(self):
        frame = b"XXXX" + encode_frame(KIND_REQUEST, {})[4:]
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(frame)
        assert excinfo.value.code == "bad_frame"

    def test_bad_version(self):
        frame = bytearray(encode_frame(KIND_REQUEST, {}))
        frame[4] = 99
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(bytes(frame))
        assert excinfo.value.code == "bad_frame"

    def test_bad_kind(self):
        frame = bytearray(encode_frame(KIND_REQUEST, {}))
        frame[5] = 9
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(bytes(frame))
        assert excinfo.value.code == "bad_frame"

    def test_oversized_declaration(self):
        header = FRAME_HEADER.pack(MAGIC, protocol.PROTOCOL_VERSION, KIND_REQUEST, 10_000)
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(header + b"x" * 10_000, max_payload=100)
        assert excinfo.value.code == "oversized_payload"


class TestParseRequest:
    def test_valid_minimal(self, case):
        request = parse_request(request_bytes(case))
        assert request.case.case_id == case.case_id
        assert request.tenant == "default"
        assert request.k is None and request.deadline_ms is None

    def test_full_fields(self, case):
        request = parse_request(
            request_bytes(case, tenant="edge", k=3, deadline_ms=50, request_id="r7")
        )
        assert request.tenant == "edge"
        assert request.k == 3
        assert request.deadline_ms == 50.0
        assert request.request_id == "r7"

    def test_tenant_falls_back_to_case_metadata(self, case):
        data = {"case": case_to_dict(case)}
        data["case"]["metadata"]["tenant"] = "from-meta"
        request = parse_request(json.dumps(data).encode())
        assert request.tenant == "from-meta"

    def test_list_form_case_still_parses(self, case):
        """Hand-written bodies send the columns as plain number lists."""
        request = parse_request(json.dumps({"case": list_form_dict(case)}).encode())
        for column in ("codes", "v", "f", "labels"):
            got = getattr(request.case.dataset, column)
            want = getattr(case.dataset, column)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"{nope")
        assert excinfo.value.code == "bad_json"

    def test_non_utf8(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"\xff\xfe\x00")
        assert excinfo.value.code == "bad_json"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"[1, 2]")
        assert excinfo.value.code == "bad_request"

    def test_missing_case(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"tenant": "a"}')
        assert excinfo.value.code == "bad_request"

    def test_unknown_field(self, case):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(request_bytes(case, wat=1))
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize("k", [0, -1, 1.5, "3", True])
    def test_bad_k(self, case, k):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(request_bytes(case, k=k))
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize("deadline", [0, -5, "fast", True])
    def test_bad_deadline(self, case, deadline):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(request_bytes(case, deadline_ms=deadline))
        assert excinfo.value.code == "bad_request"

    def test_bad_case_bundle(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"case": {"schema": "not-a-schema"}}')
        assert excinfo.value.code == "bad_case"


class TestBodies:
    def test_ok_status_is_200(self):
        body = ok_body(
            case_id="c", tenant="t", root_causes=[], seconds=0.1,
            tier=None, stop_reason=None, shard=0, request_id=None,
        )
        assert body["tier"] == "full"
        assert http_status_for(body) == 200

    def test_every_error_code_maps(self):
        for code, status in ERROR_CODES.items():
            assert http_status_for(error_body(code, "x")) == status

    def test_every_shed_code_maps(self):
        for code, status in SHED_CODES.items():
            assert http_status_for(shed_body(code)) == status

    def test_unknown_codes_rejected(self):
        with pytest.raises(ValueError):
            error_body("nope", "x")
        with pytest.raises(ValueError):
            shed_body("nope")
        with pytest.raises(ValueError):
            ProtocolError("nope", "x")

    def test_code_sets_disjoint(self):
        assert not set(ERROR_CODES) & set(SHED_CODES)
