"""Multi-tenant case executor.

Every multi-case path of the repository — ``fleet-localize``,
``batch-localize`` and ``serve`` — runs here: one FIFO per schema layout,
served by worker threads that each keep a private warm engine, plus
per-tenant quotas and the crash protocol (:mod:`repro.fleet.supervisor`), and an append-only
segment-log store for replay, audit and warm starts
(:mod:`repro.fleet.store`).  Output is bit-identical to a serial run —
results are sequenced by submission id, never completion order.  See
``docs/architecture.md`` (structure) and ``docs/operational.md``
(queue/quota sizing).
"""

from .store import MAGIC, STORE_VERSION, FleetStore, StoreRecord
from .supervisor import (
    CaseOutcome,
    FleetConfig,
    FleetItem,
    FleetSupervisor,
    LayoutKey,
    fleet_localize,
    layout_key,
    replay_store,
    tenant_of,
)

__all__ = [
    "CaseOutcome",
    "FleetConfig",
    "FleetItem",
    "FleetStore",
    "FleetSupervisor",
    "LayoutKey",
    "MAGIC",
    "STORE_VERSION",
    "StoreRecord",
    "fleet_localize",
    "layout_key",
    "replay_store",
    "tenant_of",
]
