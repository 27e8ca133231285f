"""Admission control: bounded depth, per-tenant shares, shed-not-queue.

This is the only per-tenant bound between a client and the fleet, and
it bounds both *queue memory* and *latency*: an unbounded accept queue
turns overload into timeouts for everyone.  :class:`AdmissionController`
decides, at the moment a request arrives, one of three fates:

* **admit full** — depth below the soft cap: the request runs with
  whatever deadline it asked for (or none).
* **admit degraded** — depth between the soft and hard caps: the
  request is admitted but pinned to a tight
  :attr:`AdmissionConfig.degraded_deadline_ms` budget with the
  degradation ladder active, so a congested server serves *partial
  results quickly* instead of full results late.
* **shed** — a typed refusal (:data:`~repro.serving.protocol.SHED_CODES`)
  with a retry hint, in strict precedence ``shutting_down`` >
  ``queue_full`` > ``tenant_quota``.  Shedding is O(1) and touches no
  shard: the client learns *immediately*.

A slot is held from admission until the fleet finishes the case — not
until the response is written — so a client that times out and walks
away cannot launder extra capacity.  The controller is pure state (no
metrics, no clocks beyond the caller's), which is what lets the
property suite drive it with thousands of random admit/release
interleavings; the server wires the ``serving_*`` gauges around it.

Sizing math lives in ``docs/operational.md``; the knobs are surfaced on
``repro serve`` one-to-one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["Admission", "AdmissionConfig", "AdmissionController"]


@dataclass
class AdmissionConfig:
    """Knobs of the serving tier's admission policy."""

    #: Hard cap on admitted-but-unfinished requests, server-wide.  At
    #: this depth new requests shed with ``queue_full``.
    max_queue_depth: int = 64
    #: Soft cap: depth at or above this admits **degraded** (tight
    #: deadline + ladder) instead of full.  ``None`` disables the
    #: degraded band; must be <= ``max_queue_depth`` otherwise.
    soft_queue_depth: Optional[int] = 48
    #: Max admitted-but-unfinished requests per tenant; above it the
    #: tenant sheds with ``tenant_quota`` while others still admit.
    tenant_inflight_limit: int = 16
    #: The deadline pinned onto degraded admissions, in milliseconds.
    degraded_deadline_ms: float = 250.0

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.soft_queue_depth is not None and not (
            1 <= self.soft_queue_depth <= self.max_queue_depth
        ):
            raise ValueError(
                f"soft_queue_depth must be in [1, max_queue_depth], "
                f"got {self.soft_queue_depth}"
            )
        if self.tenant_inflight_limit < 1:
            raise ValueError(
                f"tenant_inflight_limit must be >= 1, got {self.tenant_inflight_limit}"
            )
        if self.degraded_deadline_ms <= 0:
            raise ValueError(
                f"degraded_deadline_ms must be > 0, got {self.degraded_deadline_ms}"
            )


@dataclass(frozen=True)
class Admission:
    """One admission verdict."""

    #: The request may proceed to the fleet.
    admitted: bool
    #: ``"full"`` or ``"degraded"`` when admitted, else ``None``.
    tier: Optional[str] = None
    #: A :data:`~repro.serving.protocol.SHED_CODES` key when shed.
    shed_reason: Optional[str] = None
    #: Deadline the server must pin on a degraded admission (ms).
    deadline_ms: Optional[float] = None


class AdmissionController:
    """Thread-safe admit/release ledger implementing the policy above."""

    def __init__(self, config: Optional[AdmissionConfig] = None):
        self.config = config if config is not None else AdmissionConfig()
        self._lock = threading.Lock()
        self._depth = 0
        self._per_tenant: Dict[str, int] = {}
        self._shutting_down = False

    # -- policy ------------------------------------------------------------

    def try_admit(self, tenant: str) -> Admission:
        """Decide one request's fate and (on admit) take its slot."""
        config = self.config
        with self._lock:
            if self._shutting_down:
                return Admission(admitted=False, shed_reason="shutting_down")
            if self._depth >= config.max_queue_depth:
                return Admission(admitted=False, shed_reason="queue_full")
            if self._per_tenant.get(tenant, 0) >= config.tenant_inflight_limit:
                return Admission(admitted=False, shed_reason="tenant_quota")
            degraded = (
                config.soft_queue_depth is not None
                and self._depth >= config.soft_queue_depth
            )
            self._depth += 1
            self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + 1
            if degraded:
                return Admission(
                    admitted=True,
                    tier="degraded",
                    deadline_ms=config.degraded_deadline_ms,
                )
            return Admission(admitted=True, tier="full")

    def release(self, tenant: str) -> None:
        """Return one tenant's slot (called when the fleet finishes it)."""
        with self._lock:
            if self._depth <= 0:
                raise RuntimeError("release without a matching admit")
            held = self._per_tenant.get(tenant, 0)
            if held <= 0:
                raise RuntimeError(f"release for tenant {tenant!r} holding no slot")
            self._depth -= 1
            if held == 1:
                del self._per_tenant[tenant]
            else:
                self._per_tenant[tenant] = held - 1

    # -- lifecycle / introspection ----------------------------------------

    def begin_shutdown(self) -> None:
        """Shed every request from now on; held slots still release."""
        with self._lock:
            self._shutting_down = True

    @property
    def shutting_down(self) -> bool:
        with self._lock:
            return self._shutting_down

    @property
    def depth(self) -> int:
        """Admitted-but-unfinished requests right now."""
        with self._lock:
            return self._depth

    def tenant_inflight(self, tenant: str) -> int:
        with self._lock:
            return self._per_tenant.get(tenant, 0)

    def snapshot(self) -> Dict[str, int]:
        """Per-tenant held slots (a copy; for gauges and debugging)."""
        with self._lock:
            return dict(self._per_tenant)

    def retry_after_ms(self, estimate_ms: float = 50.0) -> float:
        """A crude backoff hint: one in-flight request's worth of time.

        The server multiplies a per-case latency estimate by the depth
        share a retry would wait behind; clients treat it as a hint, not
        a promise.
        """
        with self._lock:
            return max(1.0, estimate_ms * max(1, self._depth))
