"""Network serving tier: per-tick localization requests over the fleet.

The fleet layer (:mod:`repro.fleet`) serves cases already in the
process; this package puts a wire in front of it.  A
:class:`~repro.serving.server.LocalizationServer` accepts per-tick KPI
snapshot requests over HTTP JSON and/or a length-prefixed binary frame
stream (:mod:`repro.serving.protocol`), runs them through real
admission control — bounded queue depth, per-tenant in-flight shares,
shed-on-overload with typed responses, a degraded band that trades a
tight per-request deadline for latency under congestion
(:mod:`repro.serving.admission`) — and executes on the supervisor's
warm-engine workers.  Accepted full-tier requests return root causes
**bit-identical** to an in-process serial run of the same case.

``docs/serving.md`` is the protocol spec; ``docs/operational.md`` has
the queue/shed sizing math; ``repro serve`` is the CLI entry point.
"""

from .admission import Admission, AdmissionConfig, AdmissionController
from .client import BinaryServingClient, ServingClient, localize_payload
from .protocol import (
    ERROR_CODES,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAGIC,
    PROTOCOL_VERSION,
    LocalizeRequest,
    ProtocolError,
    SHED_CODES,
    decode_frame,
    encode_frame,
    parse_request,
)
from .server import LocalizationServer, ServingConfig

__all__ = [
    "Admission",
    "AdmissionConfig",
    "AdmissionController",
    "BinaryServingClient",
    "ERROR_CODES",
    "KIND_ERROR",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "LocalizationServer",
    "LocalizeRequest",
    "MAGIC",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SHED_CODES",
    "ServingClient",
    "ServingConfig",
    "decode_frame",
    "encode_frame",
    "localize_payload",
    "parse_request",
]
