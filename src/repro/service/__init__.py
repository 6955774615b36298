"""Lifeguard-as-a-service: the continuous-operation repair daemon.

The one-shot experiments build a world, inject a few outages, and tear
down; this package runs LIFEGUARD the way the paper sizes it (§5.3) —
continuously, over thousands of monitored pairs, against a streaming
outage workload.  :class:`LifeguardService` composes one outage-keyed
:class:`Backlog` of waiting repair work — whose per-stage views are
read off the records through ``stage_of``, never stored — served under
per-stage budgets and deadlines, watermark-driven admission control with
tiered graceful degradation (:mod:`repro.service.admission`), and the
write-ahead journal and observability substrate into a deterministic,
crash-recoverable daemon.
"""

from repro.service.admission import (
    AdmissionController,
    OverloadSignals,
    ServiceTier,
    Watermarks,
)
from repro.service.daemon import (
    DEFAULT_ARRIVALS,
    Backlog,
    LifeguardService,
    ServiceConfig,
    ServiceReport,
)

__all__ = [
    "AdmissionController",
    "Backlog",
    "DEFAULT_ARRIVALS",
    "LifeguardService",
    "OverloadSignals",
    "ServiceConfig",
    "ServiceReport",
    "ServiceTier",
    "Watermarks",
]
