"""`repro.obs` — deterministic observability for the LIFEGUARD reproduction.

Three pillars, one constraint:

* :mod:`repro.obs.events` — a schema-versioned **event bus**: sim-time-
  stamped, sequence-numbered events from every instrumented subsystem
  (BGP engine, prober, monitor, isolator, guard, control loop), with a
  running digest and a streaming JSONL sink; the bus keeps no event.
* :mod:`repro.obs.metrics` — a **metrics registry** of named counters,
  gauges and histograms with deterministic snapshots;
  :class:`~repro.runner.stats.RunStats` is a thin bridge over it.
* :mod:`repro.obs.trace` — **repair-timeline tracing**: span trees per
  outage (detection → isolation → poison → convergence → verification →
  unpoison) with causal references to the BGP updates each phase caused.
  It renders the controller's records, so it sits above
  :mod:`repro.control` and is imported by name, not from this package
  (which the prober imports).

The constraint: *no wall clock in event identity*.  Events are stamped
with simulation time and sequence numbers only, so the event-log digest
for a given seed is byte-identical at any worker count — traces are
diffable artifacts that CI gates on (:mod:`repro.obs.export`).

Core modules are instrumented through an ``obs`` attribute (default
``None``) and emit through it when a bus is attached via
:meth:`~repro.control.lifeguard.Lifeguard.attach_observer`.  The prober
alone imports :func:`repro.obs.events.prepare`, to render each of its
probe events' lines once and emit them with ``emit_prepared``.
"""

from repro.obs.events import EVENT_SCHEMA_VERSION, Event, EventBus
from repro.obs.export import (
    check_trace_determinism,
    event_log_digest,
    prometheus_text,
    read_events_jsonl,
    write_metrics_snapshot,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "Event",
    "EventBus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "check_trace_determinism",
    "event_log_digest",
    "prometheus_text",
    "read_events_jsonl",
    "write_metrics_snapshot",
]
