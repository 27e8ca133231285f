"""Properties of the serving tier: admission invariants, parser totality.

The admission controller is pure state, so hypothesis can drive it with
arbitrary admit/release interleavings and check the ledger invariants
that the live server depends on (a slot leak would eventually wedge the
whole front door at ``queue_full``).  The request parser must be
*total* over byte strings: whatever arrives off the wire, the only
non-value outcome is a typed :class:`~repro.serving.ProtocolError` —
anything else would let one malformed client kill a handler task.
RPSV request frames round-trip every column bit-exact, into arrays that
own their memory, for every packed code width.
"""

from __future__ import annotations

import json
from typing import List, Tuple

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from repro.data.dataset import FineGrainedDataset
from repro.data.injection import LocalizationCase
from repro.data.io import COLUMNS
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    KIND_REQUEST,
    ProtocolError,
    encode_frame,
    localize_payload,
)
from repro.serving.protocol import HEAD_LENGTH, decode_frame, parse_request
from tests.property.test_data_properties import CODEC_SCHEMAS, codec_cases

TENANTS = ["a", "b", "c"]


@st.composite
def admission_runs(draw) -> Tuple[AdmissionConfig, List[Tuple[str, str]]]:
    """A config plus an interleaving of admit/release ops per tenant."""
    max_depth = draw(st.integers(min_value=1, max_value=8))
    soft = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=max_depth))
    )
    config = AdmissionConfig(
        max_queue_depth=max_depth,
        soft_queue_depth=soft,
        tenant_inflight_limit=draw(st.integers(min_value=1, max_value=6)),
    )
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["admit", "release"]), st.sampled_from(TENANTS)),
            max_size=60,
        )
    )
    return config, ops


@settings(deadline=None, max_examples=200)
@given(admission_runs())
def test_admission_ledger_invariants(run):
    """Depth == sum of tenant shares; caps never exceeded; verdicts typed."""
    config, ops = run
    ctl = AdmissionController(config)
    held = {tenant: 0 for tenant in TENANTS}
    for op, tenant in ops:
        if op == "admit":
            verdict = ctl.try_admit(tenant)
            if verdict.admitted:
                held[tenant] += 1
                assert verdict.tier in ("full", "degraded")
                assert verdict.shed_reason is None
                if verdict.tier == "degraded":
                    assert verdict.deadline_ms == config.degraded_deadline_ms
            else:
                assert verdict.tier is None
                assert verdict.shed_reason in ("queue_full", "tenant_quota")
        elif held[tenant] > 0:
            ctl.release(tenant)
            held[tenant] -= 1
        # The ledger invariants hold after every single operation.
        total = sum(held.values())
        assert ctl.depth == total
        assert ctl.depth <= config.max_queue_depth
        for t in TENANTS:
            assert ctl.tenant_inflight(t) == held[t]
            assert held[t] <= config.tenant_inflight_limit
        assert ctl.snapshot() == {t: n for t, n in held.items() if n}


@settings(deadline=None, max_examples=300)
@given(st.binary(max_size=512))
def test_parse_request_is_total(payload):
    """Arbitrary bytes either parse or raise exactly ProtocolError, as an
    HTTP body and as a request frame's payload alike."""
    for binary in (False, True):
        try:
            parse_request(payload, binary=binary)
        except ProtocolError as exc:
            assert exc.code in ("bad_json", "bad_request", "bad_case")


def empty_case(dtype: str):
    """A 0-row case of the codec schema packing codes as *dtype*."""
    schema = CODEC_SCHEMAS[dtype]
    dataset = FineGrainedDataset(
        schema, np.zeros((0, schema.n_attributes), np.int64), [], [], []
    )
    return dtype, LocalizationCase(case_id="empty", dataset=dataset, true_raps=())


def request_payload(case) -> bytes:
    return decode_frame(encode_frame(KIND_REQUEST, localize_payload(case, k=1)))[1]


@given(codec_cases())
@example(empty_case("|u1"))
@example(empty_case("<u4"))
@settings(max_examples=40, deadline=None)
def test_request_frame_round_trip_is_bit_exact_and_owned(drawn):
    """Every column decodes to the original bits, in memory the dataset
    owns: nothing keeps the request's bytes alive."""
    dtype, case = drawn
    payload = request_payload(case)
    (length,) = HEAD_LENGTH.unpack_from(payload)
    head = json.loads(payload[HEAD_LENGTH.size : HEAD_LENGTH.size + length])
    assert head["codes"]["dtype"] == dtype
    decoded = parse_request(payload, binary=True).case.dataset
    received = np.frombuffer(payload, dtype=np.uint8)
    for column in COLUMNS:
        got = getattr(decoded, column)
        want = getattr(case.dataset, column)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, received)
        root = got
        while root.base is not None:
            root = root.base
        assert isinstance(root, np.ndarray) and root.flags.owndata


@given(codec_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_corrupted_request_frames_parse_or_refuse_typed(drawn, data):
    """A valid request payload with a few bytes overwritten anywhere (head
    length, head, columns) either parses or raises a typed code."""
    __, case = drawn
    payload = bytearray(request_payload(case))
    edits = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(payload) - 1), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        )
    )
    for position, value in edits:
        payload[position] = value
    try:
        parse_request(bytes(payload), binary=True)
    except ProtocolError as exc:
        assert exc.code in ("bad_request", "bad_case")


@settings(deadline=None, max_examples=300)
@given(st.binary(max_size=64), st.integers(min_value=0, max_value=64))
def test_decode_frame_is_total(data, cap):
    """Arbitrary bytes never crash the frame decoder untyped."""
    try:
        decode_frame(data, max_payload=cap)
    except ProtocolError as exc:
        assert exc.code in ("bad_frame", "truncated", "oversized_payload")
