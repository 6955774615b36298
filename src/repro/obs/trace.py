"""Repair-timeline tracing: span trees over the controller's records.

One outage's lifecycle under LIFEGUARD is a sequence of causally linked
phases — detection → isolation → poison → convergence → verification →
repair detection → unpoison.  The controller journals every decision and
mirrors each entry onto the bus as a ``control.*`` event;
:func:`assemble_timelines` reads those events back as the entries they
mirror, folds them into records
(:class:`~repro.control.record.RepairRecord`) with
:func:`repro.control.record.fold_records` — the same reducers the live
loop and crash recovery run — and renders each record as one
:class:`RepairTimeline`: a tree of :class:`Span` objects, each carrying
the sim-time window of its phase and **causal references**
(sequence-number ranges) to the ``bgp.update-sent`` events that phase
triggered on the wire.  Nothing here knows a journal kind: a span is
drawn from record fields, so a live controller's records
(:func:`timelines_of`) and the event log render the same story.

Assembly is a pure function of the event list: the same events always
produce the same spans, so a timeline rendered from a live bus, from a
JSONL file, or from a CI artifact is the same artifact.  Rendering
(:func:`render_timeline`) produces the human-readable repair story the
``repro trace`` subcommand prints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.control.journal import key_to_json
from repro.control.record import (
    RepairRecord,
    RepairState,
    fold_records,
    ledger_outage,
)
from repro.obs.events import Event

#: Spans keep at most this many explicit BGP update seq references; the
#: count and the (first, last) range are always exact.
MAX_CAUSAL_REFS = 512

_CONTROL = "control."


@dataclass
class Span:
    """One phase of a repair, with causal references into the event log."""

    name: str
    start: Optional[float] = None
    end: Optional[float] = None
    detail: Dict[str, Any] = field(default_factory=dict)
    #: seqs of bgp.update-sent events inside [start, end] (capped).
    bgp_update_seqs: List[int] = field(default_factory=list)
    bgp_updates: int = 0
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    @property
    def seq_range(self) -> Optional[Tuple[int, int]]:
        if not self.bgp_update_seqs:
            return None
        return (self.bgp_update_seqs[0], self.bgp_update_seqs[-1])


@dataclass
class RepairTimeline:
    """Everything one outage went through, rendered from its record."""

    vp_name: str
    destination: str
    outage_start: float
    spans: List[Span] = field(default_factory=list)
    final_state: Optional[str] = None
    notes: List[str] = field(default_factory=list)


def _mirrored_entries(events: Iterable[Event]) -> Iterator[Dict[str, Any]]:
    """Each ``control.*`` event back as the journal entry it mirrors: the
    subject is the outage's ledger key, and None fields are dropped as
    the journal drops them."""
    for event in events:
        if not event.kind.startswith(_CONTROL):
            continue
        entry = {
            name: value
            for name, value in event.fields.items()
            if value is not None
        }
        entry["t"] = event.t
        entry["event"] = event.kind[len(_CONTROL):]
        key = ledger_outage(event.subject) if event.subject else None
        if key is not None:
            entry["outage"] = key_to_json(key)
        yield entry


def _final_state(record: RepairRecord) -> Optional[str]:
    # Until its first journaled state a record is in progress; only a
    # rolled-back one is sent back to OBSERVED by a state entry.
    if record.state is RepairState.OBSERVED and not record.rollbacks:
        return None
    return record.state.value


def timeline_of(record: RepairRecord) -> RepairTimeline:
    """One record's repair story as spans and notes."""
    outage = record.outage
    spans = [Span("detection", outage.start, outage.detected)]
    if record.isolation_start is not None:
        detail: Dict[str, Any] = {"attempts": record.isolation_charge}
        if record.isolation is not None:
            detail.update(
                direction=record.isolation.direction.value,
                blamed_asn=record.isolation.blamed_asn,
                confidence=record.isolation.confidence,
            )
        spans.append(
            Span("isolation", record.isolation_start, record.isolated_time,
                 detail)
        )
    poisoned = record.poison_time
    if poisoned is not None:
        mode, asns, providers, step = record.poison_intent
        detail = {"asn": record.poisoned_asn, "mode": mode}
        if step:
            detail.update(
                step=step, asns=list(asns), providers=list(providers)
            )
        converged = [
            Span("convergence", t, t + seconds, {"seconds": seconds})
            for t, seconds in record.convergences
        ]
        spans.append(Span("poison", poisoned, poisoned, detail,
                          children=converged))
        spans.append(Span("verification", poisoned, record.verified_time))
    for t, asn, reason, failures in record.rollbacks:
        spans.append(Span("rollback", t, t, {
            "asn": asn, "reason": reason, "failures": failures,
        }))
    for t, step, strategy, asn in record.escalations:
        spans.append(Span("fallback", t, t, {
            "step": step, "strategy": strategy, "asn": asn,
        }))
    detected = record.repair_detected_time
    first_check = record.first_repair_check
    if first_check is not None or detected is not None:
        detail = {}
        if record.repair_checks:
            detail["checks"] = record.repair_checks
        if record.skipped_repair_checks:
            detail["skipped"] = record.skipped_repair_checks
        start = first_check if first_check is not None else detected
        spans.append(Span("repair-detection", start, detected, detail))
    if record.unpoison_time is not None:
        spans.append(
            Span("unpoison", record.unpoison_time, record.unpoison_time)
        )
    # By onset; phases that open together keep lifecycle order.
    spans.sort(key=lambda span: span.start)

    notes = [(t, f"deferred at t={t:g}: {why}") for t, why in record.deferrals]
    if record.end_journaled:
        notes.insert(0, (outage.end, f"outage ended at t={outage.end:g}"))
    notes.extend(
        (t, f"escalated to {strategy} (step {step}) at t={t:g}")
        for t, step, strategy, _asn in record.escalations
    )
    if record.gave_up is not None:
        t, reason = record.gave_up
        if reason is None:
            reason = "no reason recorded"
        notes.append((t, f"gave up at t={t:g}: {reason}"))
    # By time; an outage's end is journaled ahead of its round's stages.
    notes.sort(key=lambda note: note[0])
    return RepairTimeline(
        vp_name=outage.vp_name,
        destination=str(outage.destination),
        outage_start=outage.start,
        spans=spans,
        final_state=_final_state(record),
        notes=[text for _t, text in notes],
    )


def timelines_of(records: Iterable[RepairRecord]) -> List[RepairTimeline]:
    """Every record's timeline, by outage start, vantage point and
    destination."""
    return sorted(
        (timeline_of(record) for record in records),
        key=lambda tl: (tl.outage_start, tl.vp_name, tl.destination),
    )


def _attach_causal_refs(
    timelines: Iterable[RepairTimeline], events: List[Event]
) -> None:
    """Link each span, children included, to the BGP updates its window
    triggered."""
    # The bus clock never runs backwards, so this keeps seq order; it
    # is what the bisection below relies on.
    updates = sorted(
        (e for e in events if e.kind == "bgp.update-sent"),
        key=lambda e: e.t,
    )
    times = [update.t for update in updates]
    seqs = [update.seq for update in updates]

    def link(span: Span) -> None:
        if span.start is None:
            return
        end = span.end if span.end is not None else float("inf")
        lo = bisect_left(times, span.start)
        hi = bisect_right(times, end)
        if hi > lo:
            span.bgp_updates += hi - lo
            span.bgp_update_seqs.extend(
                seqs[lo:min(hi, lo + MAX_CAUSAL_REFS)]
            )
        for child in span.children:
            link(child)

    for timeline in timelines:
        for span in timeline.spans:
            link(span)


def assemble_timelines(
    events: Iterable[Event],
) -> List[RepairTimeline]:
    """Fold an event stream into one timeline per observed outage.

    Only ``control.*`` events (the mirrored write-ahead journal) shape
    the spans; ``bgp.update-sent`` events provide the causal references.
    Events from unrelated components pass through untouched, so a full
    firehose log and a control-only log yield the same span structure.
    """
    events = [
        e if isinstance(e, Event) else Event.from_json(e) for e in events
    ]
    timelines = timelines_of(fold_records(_mirrored_entries(events)))
    _attach_causal_refs(timelines, events)
    return timelines


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_span(span: Span, last: bool, indent: str = "  ") -> List[str]:
    branch = "└─" if last else "├─"
    window = ""
    if span.start is not None and span.end is not None:
        window = f"t={span.start:g} → {span.end:g}"
        if span.duration:
            window += f"  ({span.duration:g}s)"
    elif span.start is not None:
        window = f"t={span.start:g} → …"
    detail_bits = [
        f"{key}={value}"
        for key, value in sorted(span.detail.items())
        if value is not None
    ]
    if span.bgp_updates:
        lo, hi = span.seq_range
        detail_bits.append(
            f"bgp updates: {span.bgp_updates} (seq {lo}–{hi})"
        )
    suffix = f"  [{', '.join(detail_bits)}]" if detail_bits else ""
    lines = [f"{indent}{branch} {span.name:<17}{window}{suffix}"]
    for i, child in enumerate(span.children):
        lines.extend(
            _format_span(
                child,
                last=(i == len(span.children) - 1),
                indent=indent + ("   " if last else "│  "),
            )
        )
    return lines


def render_timeline(timeline: RepairTimeline) -> str:
    """The human-readable repair story for one outage."""
    header = (
        f"repair {timeline.vp_name} → {timeline.destination} "
        f"(outage t={timeline.outage_start:g}, "
        f"final state: {timeline.final_state or 'in progress'})"
    )
    lines = [header]
    for i, span in enumerate(timeline.spans):
        lines.extend(_format_span(span, last=(i == len(timeline.spans) - 1)))
    for note in timeline.notes:
        lines.append(f"  · {note}")
    return "\n".join(lines)


def render_timelines(timelines: Iterable[RepairTimeline]) -> str:
    blocks = [render_timeline(tl) for tl in timelines]
    if not blocks:
        return "(no repair activity recorded)"
    return "\n\n".join(blocks)
