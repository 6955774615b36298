"""Tests for repair-timeline tracing (repro.obs.trace).

The end-to-end half runs the demo scenario (shortened horizon) under an
observed bus once per module and asserts the full repair lifecycle —
detection → isolation → poison → convergence → verification →
repair-detection → unpoison — reconstructs from the event log alone,
and that it is the story the live controller's own records tell.
"""

import io
import json

import pytest

from repro.control.plan import LifeguardConfig
from repro.control.record import LADDER_STRATEGIES
from repro.errors import ControlError
from repro.obs.events import Event, EventBus
from repro.obs.export import read_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    Span,
    assemble_timelines,
    render_timeline,
    render_timelines,
    timelines_of,
)
from repro.service import LifeguardService, ServiceConfig
from repro.workloads.outages import OutageArrivalConfig
from repro.workloads.scenarios import (
    build_chaos_deployment,
    run_demo_scenario,
)

#: Shortened demo horizon: the outage heals at t=2400 so the whole
#: lifecycle (through unpoison) fits well inside end=3600.
DEMO_KWARGS = dict(seed=0, fail_start=1000.0, fail_end=2400.0, end=3600.0)


def _span(timeline, name):
    """The first span of *timeline* called *name*."""
    return next((s for s in timeline.spans if s.name == name), None)


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
        names = [span.name for span in repaired_timeline.spans]
        for phase in (
            "detection", "isolation", "poison",
            "verification", "repair-detection", "unpoison",
        ):
            assert phase in names, f"missing {phase} in {names}"
        # Spans are ordered by onset.
        assert names.index("detection") < names.index("isolation")
        assert names.index("isolation") < names.index("poison")

    def test_convergence_child_span(self, repaired_timeline):
        poison = _span(repaired_timeline, "poison")
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
        assert _span(repaired_timeline, "poison").detail["asn"] == bad_asn
        assert (
            _span(repaired_timeline, "isolation").detail["blamed_asn"]
            == bad_asn
        )

    def test_causal_bgp_references(self, repaired_timeline):
        poison = _span(repaired_timeline, "poison")
        assert poison.bgp_updates > 0
        lo, hi = poison.seq_range
        assert lo <= hi
        assert len(poison.bgp_update_seqs) <= poison.bgp_updates

    def test_detection_window_matches_outage(self, repaired_timeline):
        detection = _span(repaired_timeline, "detection")
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


def _story(timelines):
    """Everything a timeline says but its causal references."""

    def span(s):
        return (s.name, s.start, s.end, s.detail, [span(c) for c in s.children])

    return [
        (
            tl.vp_name, tl.destination, tl.outage_start, tl.final_state,
            tl.notes, [span(s) for s in tl.spans],
        )
        for tl in timelines
    ]


def _ladder_run(seed):
    """(events, controller) of a chaos service run whose plain poisons
    are all filtered, so repairs roll back, climb the ladder and give
    up."""
    config = LifeguardConfig(
        fallback_ladder=True,
        breaker_max_failures=len(LADDER_STRATEGIES) - 1,
    )
    scenario, _ = build_chaos_deployment(
        scale="tiny", seed=seed, intensity=0.2, defense_rate=1.0,
        lifeguard_config=config,
    )
    sink = io.StringIO()
    scenario.lifeguard.attach_observer(EventBus(sink=sink))
    for asn, speaker in scenario.engine.speakers.items():
        if asn != scenario.origin_asn:
            speaker.reconfigure(filter_poisoned_paths=True)
    LifeguardService(
        scenario,
        ServiceConfig(
            duration=5400.0,
            arrivals=OutageArrivalConfig(
                first_arrival=1000.0, spacing=600.0, duration=4200.0
            ),
            seed=seed,
            drain=9000.0,
        ),
    ).run()
    sink.seek(0)
    return read_events_jsonl(sink), scenario.lifeguard


class TestOneFold:
    """The event log and the live records tell one story: the trace
    folds the mirrored entries with the controller's own reducers."""

    def test_demo_log_renders_the_live_records(self, observed_demo):
        events, _registry, scenario, _bad_asn = observed_demo
        live = timelines_of(scenario.lifeguard.records)
        assert _story(assemble_timelines(events)) == _story(live)

    def test_ladder_log_renders_the_live_records(self):
        events, lifeguard = _ladder_run(3)
        live = timelines_of(lifeguard.records)
        names = {span.name for tl in live for span in tl.spans}
        assert {"rollback", "fallback"} <= names
        assert {tl.final_state for tl in live} >= {
            "not-poisoned", "rolled-back", "observed",
        }
        assert _story(assemble_timelines(events)) == _story(live)

    def test_an_unknown_control_kind_is_refused(self):
        events = [
            Event(seq=0, t=1.0, kind="control.esclate",
                  component="control.lifeguard",
                  subject="origin|1.2.3.4|100.0"),
        ]
        with pytest.raises(ControlError, match="'esclate'"):
            assemble_timelines(events)


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
        rollback = _span(timeline, "rollback")
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
