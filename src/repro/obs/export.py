"""Exporters for the observability subsystem.

Three output formats, all deterministic:

* **JSONL event logs** — one canonical line per event, as the bus's
  sink writes them; :func:`read_events_jsonl` parses a log back.
* **Metrics snapshots** — the registry's sorted-key JSON, accepted from
  a :class:`~repro.obs.metrics.MetricsRegistry`, a
  :class:`~repro.runner.stats.RunStats` bridge, or a raw snapshot dict.
* **Prometheus text format** — for scraping a long-running deployment;
  names are sanitized to the Prometheus grammar with the ``repro_``
  namespace prefix.

Also home to the cross-worker determinism check behind
``repro trace --check-determinism``: the demo scenario is replayed under
:func:`~repro.runner.core.run_trials` at two worker counts and the
event-log digests must match seed-for-seed — the CI gate that keeps
event logs trustworthy as artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.events import Event
from repro.obs.metrics import MetricsRegistry

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


# ----------------------------------------------------------------------
# Event logs
# ----------------------------------------------------------------------
def read_events_jsonl(source: Any) -> List[Event]:
    """The events of a JSONL event log.  *source* is what an
    :class:`~repro.obs.events.EventBus` takes as its sink: a path, or an
    open text handle read from its current position (seek an
    ``io.StringIO`` sink to 0 first)."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            return read_events_jsonl(handle)
    return [
        Event.from_json(json.loads(line)) for line in source if line.strip()
    ]


def event_log_digest(events: Iterable[Event]) -> str:
    """SHA-256 over canonical event lines — matches
    :meth:`EventBus.digest` for the events the bus's sink received."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(event.canonical().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Metrics snapshots
# ----------------------------------------------------------------------
def _as_snapshot(metrics: Any) -> Dict[str, Any]:
    """Accept a registry, a RunStats bridge, or an already-built dict."""
    if isinstance(metrics, MetricsRegistry):
        return metrics.snapshot()
    registry = getattr(metrics, "registry", None)
    if isinstance(registry, MetricsRegistry):
        return registry.snapshot()
    if isinstance(metrics, dict):
        return metrics
    raise TypeError(
        f"cannot snapshot metrics from {type(metrics).__name__}"
    )


def write_metrics_snapshot(metrics: Any, path: str) -> Dict[str, Any]:
    """Write a deterministic metrics snapshot as JSON; returns it."""
    snapshot = _as_snapshot(metrics)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snapshot


def _prom_number(value: Any) -> str:
    """*value* in full, as the JSON snapshot has it: an int as its
    digits, a float by ``float.__repr__`` (never ``:g``'s six
    significant digits)."""
    if isinstance(value, int):
        return int.__repr__(value)
    return float.__repr__(float(value))


def prometheus_text(metrics: Any) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    snapshot = _as_snapshot(metrics)
    lines: List[str] = []

    def prom_name(name: str) -> str:
        return "repro_" + _PROM_NAME.sub("_", name)

    for name, value in snapshot.get("counters", {}).items():
        metric = prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_number(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_number(value)}")
    for name, blob in snapshot.get("histograms", {}).items():
        metric = prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in blob.get("buckets", []):
            le = "+Inf" if bound == "+Inf" else _prom_number(float(bound))
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{metric}_sum {_prom_number(blob.get('sum', 0.0))}")
        lines.append(f"{metric}_count {blob.get('count', 0)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Cross-worker determinism check
# ----------------------------------------------------------------------
def demo_digest_worker(context: Optional[Dict[str, Any]], seed: int) -> str:
    """Trial worker: run one observed demo scenario, return its digest.

    Module-level so the process pool can pickle it by reference.
    """
    from repro.obs.events import EventBus
    from repro.workloads.scenarios import run_demo_scenario

    bus = EventBus()
    run_demo_scenario(seed=seed, obs=bus, **(context or {}))
    return bus.digest()


def demo_event_digests(
    seeds: Sequence[int],
    workers: int = 1,
    **demo_kwargs: Any,
) -> List[str]:
    """Per-seed demo event-log digests, computed at any worker count."""
    from repro.runner.core import run_trials

    return run_trials(
        demo_digest_worker,
        list(seeds),
        context=demo_kwargs or None,
        workers=workers,
        label="obs.digest",
    )


def check_trace_determinism(
    seeds: Sequence[int] = (0, 1),
    workers: int = 4,
    **demo_kwargs: Any,
) -> Dict[int, Dict[str, Any]]:
    """Compare serial vs parallel event-log digests, seed by seed.

    Returns ``{seed: {"serial": d1, "parallel": d2, "match": bool}}``.
    A mismatch means event emission depends on execution layout — the
    exact bug the obs subsystem is contractually free of.
    """
    serial = demo_event_digests(seeds, workers=1, **demo_kwargs)
    parallel = demo_event_digests(seeds, workers=workers, **demo_kwargs)
    return {
        seed: {
            "serial": s,
            "parallel": p,
            "match": s == p,
        }
        for seed, s, p in zip(seeds, serial, parallel)
    }
