"""Lifeguard-as-a-service: the continuous-operation repair daemon.

The one-shot experiments build a world, inject a few outages, and tear
down; this package runs LIFEGUARD the way the paper sizes it (§5.3) —
continuously, over thousands of monitored pairs, against a streaming
outage workload.  :class:`LifeguardService` composes bounded per-stage
work queues (:mod:`repro.service.queues`), watermark-driven admission
control with tiered graceful degradation
(:mod:`repro.service.admission`), and the PR 3 journal / PR 4
observability substrate into a deterministic, crash-recoverable daemon.
"""

from repro.service.admission import (
    AdmissionController,
    OverloadSignals,
    ServiceTier,
    Watermarks,
)
from repro.service.daemon import (
    DEFAULT_ARRIVALS,
    LifeguardService,
    ServiceConfig,
    ServiceReport,
)
from repro.service.queues import QueueItem, Stage, StageQueue

__all__ = [
    "AdmissionController",
    "DEFAULT_ARRIVALS",
    "LifeguardService",
    "OverloadSignals",
    "QueueItem",
    "ServiceConfig",
    "ServiceReport",
    "ServiceTier",
    "Stage",
    "StageQueue",
    "Watermarks",
]
