"""Protocol tests: framing, request validation, typed codes."""

from __future__ import annotations

import json

import pytest

from repro.data.io import COLUMNS, case_to_dict
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.serving import localize_payload, protocol
from tests.conftest import list_form_dict
from repro.serving.protocol import (
    ERROR_CODES,
    FRAME_HEADER,
    HEAD_LENGTH,
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
        kind, body = decode_frame(encode_frame(KIND_RESPONSE, payload))
        assert kind == KIND_RESPONSE
        assert json.loads(body) == payload

    def test_request_frame_round_trip(self, case):
        """A request frame carries the case as raw columns, bit-exact."""
        frame = encode_frame(
            KIND_REQUEST,
            localize_payload(case, tenant="edge", k=2, deadline_ms=5, request_id="r1"),
        )
        assert frame[4] == protocol.PROTOCOL_VERSION == 2
        kind, payload = decode_frame(frame)
        assert kind == KIND_REQUEST
        request = parse_request(payload, binary=True)
        assert (request.tenant, request.k, request.deadline_ms, request.request_id) == (
            "edge", 2, 5.0, "r1"
        )
        assert request.case.case_id == case.case_id
        assert request.case.true_raps == case.true_raps
        for column in COLUMNS:
            got = getattr(request.case.dataset, column)
            want = getattr(case.dataset, column)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_request_payload_layout(self, case):
        """u32 head length, a JSON head, then the four raw columns tiled."""
        __, payload = decode_frame(encode_frame(KIND_REQUEST, localize_payload(case)))
        (length,) = HEAD_LENGTH.unpack_from(payload)
        head = json.loads(payload[HEAD_LENGTH.size : HEAD_LENGTH.size + length])
        tail = payload[HEAD_LENGTH.size + length :]
        dataset = case.dataset
        assert head["codes"] == {
            "dtype": "|u1", "offset": 0, "length": dataset.codes.size
        }
        assert head["v"]["offset"] == dataset.codes.size
        assert tail[head["v"]["offset"] :][: head["v"]["length"]] == dataset.v.tobytes()
        assert head["labels"]["offset"] + head["labels"]["length"] == len(tail)
        assert tail[head["labels"]["offset"] :] == dataset.labels.astype("u1").tobytes()
        assert b"b64" not in payload[: HEAD_LENGTH.size + length]

    def test_request_frame_needs_a_case_object(self, case):
        with pytest.raises(TypeError):
            encode_frame(KIND_REQUEST, {"case": case_to_dict(case)})

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
        frame = encode_frame(KIND_RESPONSE, {"a": 1})
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(frame[:-2])
        assert excinfo.value.code == "truncated"

    def test_bad_magic(self):
        frame = b"XXXX" + encode_frame(KIND_RESPONSE, {})[4:]
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(frame)
        assert excinfo.value.code == "bad_frame"

    def test_bad_version(self):
        frame = bytearray(encode_frame(KIND_RESPONSE, {}))
        frame[4] = 99
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(bytes(frame))
        assert excinfo.value.code == "bad_frame"

    def test_version_1_frame_refused(self, case):
        """The JSON request frames of protocol version 1 are a bad_frame."""
        body = request_bytes(case)
        frame = FRAME_HEADER.pack(MAGIC, 1, KIND_REQUEST, len(body)) + body
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(frame)
        assert excinfo.value.code == "bad_frame"

    def test_bad_kind(self):
        frame = bytearray(encode_frame(KIND_RESPONSE, {}))
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

    def test_nesting_past_the_recursion_limit_is_bad_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"[" * 100_000)
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


def frame_payload(case, **extra) -> bytes:
    """The payload of a request frame for *case*."""
    return decode_frame(encode_frame(KIND_REQUEST, localize_payload(case, **extra)))[1]


def with_head(payload: bytes, head: bytes) -> bytes:
    """*payload* with its JSON head replaced by the bytes *head*."""
    (length,) = HEAD_LENGTH.unpack_from(payload)
    return HEAD_LENGTH.pack(len(head)) + head + payload[HEAD_LENGTH.size + length :]


def edit_head(payload: bytes, edit) -> bytes:
    (length,) = HEAD_LENGTH.unpack_from(payload)
    head = json.loads(payload[HEAD_LENGTH.size : HEAD_LENGTH.size + length])
    edit(head)
    return with_head(payload, json.dumps(head).encode())


class TestParseRawColumns:
    """``parse_request(payload, binary=True)``: the RPSV request form."""

    def test_tenant_falls_back_to_case_metadata(self, case):
        payload = edit_head(
            frame_payload(case), lambda head: head["metadata"].update(tenant="m")
        )
        assert parse_request(payload, binary=True).tenant == "m"

    def test_list_columns_are_not_a_frame_form(self, case):
        payload = edit_head(
            frame_payload(case),
            lambda head: head.update(labels=case.dataset.labels.astype(int).tolist()),
        )
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(payload, binary=True)
        assert excinfo.value.code == "bad_case"

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x00\x00", HEAD_LENGTH.pack(10) + b"{}"],
        ids=["empty", "short_head_length", "head_past_payload"],
    )
    def test_head_length_defects(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(payload, binary=True)
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize("head", [b"{nope", b"\xff\xfe", b"[1, 2]"])
    def test_head_not_a_json_object(self, case, head):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(with_head(frame_payload(case), head), binary=True)
        assert excinfo.value.code == "bad_request"

    def test_unknown_head_field(self, case):
        payload = edit_head(frame_payload(case), lambda head: head.update(wat=1))
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(payload, binary=True)
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize("k", [0, 1.5, True])
    def test_bad_k(self, case, k):
        payload = edit_head(frame_payload(case), lambda head: head.update(k=k))
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(payload, binary=True)
        assert excinfo.value.code == "bad_request"

    def test_an_http_body_is_not_a_frame_payload(self, case):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(request_bytes(case), binary=True)
        assert excinfo.value.code == "bad_request"


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
