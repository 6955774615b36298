"""Tests for repair-timeline tracing (repro.obs.trace).

The end-to-end half runs the demo scenario (shortened horizon) under an
observed bus once per module and asserts the full repair lifecycle —
detection → isolation → poison → convergence → verification →
repair-detection → unpoison — reconstructs from the event log alone.
"""

import io
import json

import pytest

from repro.obs.events import Event, EventBus
from repro.obs.export import read_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    Span,
    assemble_timelines,
    render_timeline,
    render_timelines,
)
from repro.workloads.scenarios import run_demo_scenario

#: Shortened demo horizon: the outage heals at t=2400 so the whole
#: lifecycle (through unpoison) fits well inside end=3600.
DEMO_KWARGS = dict(seed=0, fail_start=1000.0, fail_end=2400.0, end=3600.0)


@pytest.fixture(scope="module")
def observed_demo():
    """(events read back from the bus's sink, registry, scenario, the
    injected AS)."""
    registry = MetricsRegistry()
    sink = io.StringIO()
    bus = EventBus(sink=sink, metrics=registry)
    scenario, bad_asn = run_demo_scenario(obs=bus, **DEMO_KWARGS)
    sink.seek(0)
    return read_events_jsonl(sink), registry, scenario, bad_asn


@pytest.fixture(scope="module")
def repaired_timeline(observed_demo):
    events, _registry, _scenario, _bad_asn = observed_demo
    timelines = assemble_timelines(events)
    repaired = [tl for tl in timelines if tl.final_state == "unpoisoned"]
    assert repaired, "demo should complete at least one full repair"
    return repaired[0]


class TestEndToEndTimeline:
    def test_full_lifecycle_phases(self, repaired_timeline):
        names = repaired_timeline.phase_names()
        for phase in (
            "detection", "isolation", "poison",
            "verification", "repair-detection", "unpoison",
        ):
            assert phase in names, f"missing {phase} in {names}"
        # Spans are ordered by onset.
        assert names.index("detection") < names.index("isolation")
        assert names.index("isolation") < names.index("poison")

    def test_convergence_child_span(self, repaired_timeline):
        poison = repaired_timeline.span("poison")
        children = [c.name for c in poison.children]
        assert "convergence" in children
        convergence = poison.children[children.index("convergence")]
        assert convergence.duration > 0
        assert convergence.detail["seconds"] == pytest.approx(
            convergence.duration
        )

    def test_poison_blames_injected_asn(
        self, observed_demo, repaired_timeline
    ):
        _events, _registry, _scenario, bad_asn = observed_demo
        assert repaired_timeline.span("poison").detail["asn"] == bad_asn
        assert (
            repaired_timeline.span("isolation").detail["blamed_asn"]
            == bad_asn
        )

    def test_causal_bgp_references(self, repaired_timeline):
        poison = repaired_timeline.span("poison")
        assert poison.bgp_updates > 0
        lo, hi = poison.seq_range
        assert lo <= hi
        assert len(poison.bgp_update_seqs) <= poison.bgp_updates

    def test_detection_window_matches_outage(self, repaired_timeline):
        detection = repaired_timeline.span("detection")
        assert detection.start == repaired_timeline.outage_start
        assert detection.end > detection.start

    def test_render_mentions_every_phase(self, repaired_timeline):
        text = render_timeline(repaired_timeline)
        assert "final state: unpoisoned" in text
        for phase in ("detection", "poison", "convergence", "unpoison"):
            assert phase in text

    def test_assembly_is_pure_over_serialized_events(self, observed_demo):
        events, _registry, _scenario, _bad_asn = observed_demo
        direct = render_timelines(assemble_timelines(events))
        replayed = render_timelines(
            assemble_timelines(
                Event.from_json(json.loads(e.canonical()))
                for e in events
            )
        )
        assert replayed == direct

    def test_event_stream_covers_all_layers(self, observed_demo):
        events, _registry, _scenario, _bad_asn = observed_demo
        components = {e.component for e in events}
        for component in (
            "bgp.engine", "control.lifeguard", "control.guard",
            "dataplane.prober", "measure.monitor", "isolation.isolator",
        ):
            assert component in components

    def test_metrics_registry_saw_events_and_convergence(
        self, observed_demo
    ):
        _events, registry, _scenario, _bad_asn = observed_demo
        counters = registry.counter_values()
        assert counters["obs.events.control.state"] > 0
        assert counters["obs.events.probe.ping"] > 0
        totals = registry.histogram_totals()
        assert totals["repair.convergence_seconds"] > 0


class TestAssemblyFromSyntheticEvents:
    def _event(self, seq, t, kind, subject, **fields):
        return Event(
            seq=seq, t=t, kind=kind, component="control.lifeguard",
            subject=subject, fields=fields,
        )

    def test_rollback_and_not_poisoned(self):
        subject = "origin|1.2.3.4|100.0"
        events = [
            self._event(0, 130.0, "control.observed", subject,
                        detected=130.0),
            self._event(1, 150.0, "control.poison", subject, asn=7),
            self._event(2, 200.0, "control.rollback", subject, asn=7,
                        reason="ineffective", failures=1),
            self._event(3, 210.0, "control.state", subject,
                        state="not-poisoned", reason="breaker open"),
        ]
        (timeline,) = assemble_timelines(events)
        assert timeline.final_state == "not-poisoned"
        rollback = timeline.span("rollback")
        assert rollback.detail["reason"] == "ineffective"
        assert any("gave up" in note for note in timeline.notes)

    def test_unrelated_events_are_ignored(self):
        events = [
            Event(seq=0, t=1.0, kind="probe.ping",
                  component="dataplane.prober", subject="vp|dst"),
            Event(seq=1, t=2.0, kind="control.observed",
                  component="control.lifeguard", subject="not-a-key"),
        ]
        assert assemble_timelines(events) == []

    def test_empty_render(self):
        assert "no repair activity" in render_timelines([])

    def test_span_helpers(self):
        span = Span(name="x", start=1.0, end=3.5)
        assert span.duration == 2.5
        assert span.seq_range is None
        span.bgp_update_seqs = [4, 9]
        assert span.seq_range == (4, 9)
