"""Tests for the observability event bus (repro.obs.events)."""

import enum
import gc
import hashlib
import io
import json
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MeasurementError, error_context
from repro.net.addr import Prefix
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    Event,
    EventBus,
    _encode,
    _jsonable,
    prepare,
)
from repro.obs.export import read_events_jsonl
from repro.obs.metrics import MetricsRegistry


def _read(sink):
    """The events an in-memory sink received, parsed back."""
    return read_events_jsonl(io.StringIO(sink.getvalue()))


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class TestEvent:
    def test_canonical_is_sorted_and_versioned(self):
        event = Event(
            seq=3, t=12.5, kind="bgp.update-sent",
            component="bgp.engine", subject="10.0.0.0/8",
            fields={"b": 2, "a": 1},
        )
        line = event.canonical()
        doc = json.loads(line)
        assert doc["v"] == EVENT_SCHEMA_VERSION
        assert doc["seq"] == 3
        assert doc["kind"] == "bgp.update-sent"
        # Canonical form: sorted keys, no whitespace.
        assert line == json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        )

    def test_round_trip(self):
        event = Event(
            seq=0, t=1.0, kind="k", component="c",
            subject="s", fields={"x": [1, 2]},
        )
        again = Event.from_json(json.loads(event.canonical()))
        assert again == event

    def test_events_carry_no_dict_and_survive_pickling(self):
        sink = io.StringIO()
        EventBus(sink=sink).emit("k", 1.0, "c", subject="s", x=[1, 2])
        (event,) = _read(sink)
        assert not hasattr(event, "__dict__")
        assert pickle.loads(pickle.dumps(event)) == event

    def test_unjsonable_emit_fields_become_strings(self):
        sink = io.StringIO()
        EventBus(sink=sink).emit("k", 0.0, "c", obj=object())
        (event,) = _read(sink)
        assert isinstance(event.fields["obj"], str)
        json.loads(event.canonical())  # must serialize cleanly

    def test_prefix_fields_render_as_text(self):
        # A Prefix is a (base, length) tuple; on the bus it stays its
        # text, never the pair, or every prefix-carrying digest moves.
        sink = io.StringIO()
        prefix = Prefix("10.0.0.0/8")
        bus = EventBus(sink=sink)
        bus.emit("k", 0.0, "c", prefix=prefix, prefixes=[prefix])
        line = sink.getvalue()
        assert '"prefix":"10.0.0.0/8"' in line
        assert '"prefixes":["10.0.0.0/8"]' in line
        (event,) = _read(sink)
        assert event.fields == {
            "prefix": "10.0.0.0/8", "prefixes": ["10.0.0.0/8"]
        }
        assert event.canonical() + "\n" == line
        direct = Event(0, 0.0, "k", "c", fields={"prefix": prefix})
        assert '"prefix":"10.0.0.0/8"' in direct.canonical()


def _reference_line(event):
    """What ``canonical()`` was before it had a skeleton to fill."""
    return json.dumps(event.to_json(), sort_keys=True, separators=(",", ":"))


def _call_line(seq, kind, t, component, subject, fields):
    """The ``json.dumps`` line of one ``emit`` call, built from the
    call's own arguments, not from anything the bus kept."""
    blob = {
        "v": EVENT_SCHEMA_VERSION, "seq": seq, "t": float(t),
        "kind": kind, "component": component,
    }
    if subject is not None:
        blob["subject"] = subject
    if fields:
        blob["fields"] = _jsonable(fields)
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


#: Text that breaks naive templating or escaping: quotes, backslashes,
#: control characters, non-ASCII, ``%`` and braces.
_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["", '"', "\\", "a\"b\\c", "\n\t\x00\x1f\x7f", "é→🙂\ud7ff",
         "%", "%s", "%%d", "%(x)s", "{}", "{0}", "{x!r}", "AS1.r0->10.0.0.1"]
    ),
)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-07, 1e22, 1e21, 1e16, 5e-324, 0.1 + 0.2]),
    _TEXT,
)
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=3),
        st.frozensets(_TEXT, max_size=3),
        st.sets(st.integers(), max_size=3),
    ),
    max_leaves=8,
)


class TestCanonicalEncoder:
    """The skeleton-compiled line is the ``json.dumps`` line, byte for
    byte, so no digest recorded before it existed changes."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=_TEXT,
        component=_TEXT,
        subject=st.one_of(st.none(), _TEXT),
        t=st.floats(allow_nan=False, allow_infinity=False),
        fields=st.dictionaries(
            # emit()'s own parameter names cannot be field names.
            _TEXT.filter(
                lambda n: n
                not in ("self", "kind", "t", "component", "subject")
            ),
            _VALUE,
            max_size=5,
        ),
    )
    @example(kind="k", component="c", subject=None, t=0.0, fields={})
    @example(
        kind="%s", component='"{}"', subject="%d", t=-0.0,
        fields={"%s": "%s", "{}": True, "one": 1, "yes": True,
                "nan": float("nan"), "inf": float("-inf")},
    )
    def test_compiled_line_equals_json_dumps(
        self, kind, component, subject, t, fields
    ):
        sink = io.StringIO()
        bus = EventBus(sink=sink)
        bus.emit("warm-up", 0.0, "test")  # seq 1 below, not 0
        bus.emit(kind, t, component, subject=subject, **fields)
        line = _call_line(1, kind, t, component, subject, fields)
        # JSON escapes every newline inside a value: one event per line.
        assert sink.getvalue().split("\n")[1] == line
        # What the sink gives back renders to the same line.
        (_, event) = _read(sink)
        assert event.canonical() == line

    @settings(max_examples=120, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                _TEXT,
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.integers(min_value=-10, max_value=10 ** 6),
                ),
                _TEXT,
                st.one_of(st.none(), _TEXT),
                st.dictionaries(
                    st.one_of(_TEXT, st.just("seq"), st.just("v")).filter(
                        lambda n: n
                        not in ("self", "kind", "t", "component", "subject")
                    ),
                    _VALUE,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        repeat=st.integers(min_value=1, max_value=3),
    )
    @example(
        calls=[
            ("%d", math.inf, "é%", "%s→", {"seq": True, "v": -0.0}),
            ("%d", math.nan, "é%", None, {"seq": 1, "v": math.inf}),
            ("k", -0.0, "c", "s", {"b": {"y": (1, {2}), "x": [None]}}),
            ("k", 30, "c", "s", {"b": False}),
        ],
        repeat=2,
    )
    def test_hashed_line_is_the_json_dumps_line_on_every_bus(
        self, calls, repeat
    ):
        """What ``emit`` hashes and writes — not only what
        ``canonical()`` renders afterwards — is the ``json.dumps`` line,
        a shape seen before or not, whatever else hangs off the bus."""
        sink, other = io.StringIO(), io.StringIO()
        buses = [
            EventBus(),
            EventBus(sink=other),
            EventBus(metrics=MetricsRegistry()),
            EventBus(sink=sink, metrics=MetricsRegistry()),
        ]
        expected = []
        for seq, (kind, t, component, subject, fields) in enumerate(
            calls * repeat
        ):
            for bus in buses:
                bus.emit(kind, t, component, subject=subject, **fields)
            line = _call_line(seq, kind, t, component, subject, fields)
            expected.append(line + "\n")
        text = "".join(expected)
        assert sink.getvalue() == text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert [bus.digest() for bus in buses] == [digest] * len(buses)
        assert other.getvalue() == text
        parsed = [event.canonical() + "\n" for event in _read(sink)]
        assert parsed == expected

    @settings(max_examples=200, deadline=None)
    @given(
        kind=_TEXT,
        component=_TEXT,
        subject=st.one_of(st.none(), _TEXT),
        times=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(min_value=-10, max_value=10 ** 6),
            ),
            min_size=1,
            max_size=3,
        ),
        fields=st.dictionaries(
            # prepare()'s own parameter names cannot be field names.
            _TEXT.filter(lambda n: n not in ("kind", "component", "subject")),
            _VALUE,
            max_size=5,
        ),
    )
    def test_prepared_line_equals_json_dumps(
        self, kind, component, subject, times, fields
    ):
        """One ``prepare``, emitted at several times: each line is the
        ``json.dumps`` line of the matching plain ``emit`` call."""
        sink = io.StringIO()
        bus = EventBus(sink=sink, metrics=MetricsRegistry())
        prepared = prepare(kind, component, subject=subject, **fields)
        for t in times:
            bus.emit_prepared(prepared, t)
        expected = [
            _call_line(seq, kind, t, component, subject, fields) + "\n"
            for seq, t in enumerate(times)
        ]
        assert sink.getvalue() == "".join(expected)
        assert [event.canonical() + "\n" for event in _read(sink)] == expected
        assert bus.counts == {kind: len(times)}
        assert bus.metrics.counter_values() == {
            f"obs.events.{kind}": len(times)
        }

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.integers(),
                st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
                st.booleans(),
                st.sampled_from(list(_Level)),
                st.just(Prefix("10.0.0.0/8")),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=5),
                st.lists(inner, max_size=5).map(tuple),
            ),
            max_leaves=10,
        )
    )
    @example([])
    @example(())
    @example((3356, 174, 64512))
    @example([1, True])
    @example([1, _Level.HIGH])
    @example([Prefix("10.0.0.0/8"), 8])
    @example([[1, 2], [3]])
    @example(None)
    @example([1, None])
    def test_int_sequences_render_as_json_dumps(self, value):
        """The AS-path fast path (an exact list or tuple of exact ints)
        and the values it must leave to ``json.dumps``: bools, int
        enums, prefixes and nested sequences; and ``None``, which takes
        a fast path of its own."""
        reference = json.dumps(
            _jsonable(value), sort_keys=True, separators=(",", ":")
        )
        assert _encode(value) == reference
        assert Event(0, 0.0, "k", "c", fields={"p": value}).canonical() == (
            '{"component":"c","fields":{"p":' + reference
            + '},"kind":"k","seq":0,"t":0.0,"v":1}'
        )

    def test_true_is_not_one_and_ints_are_not_floats(self):
        sink = io.StringIO()
        bus = EventBus(sink=sink)
        bus.emit("k", 30, "c", yes=True, one=1, zero=0, no=False, f=1.0)
        line = (
            '{"component":"c","fields":{"f":1.0,"no":false,"one":1,'
            '"yes":true,"zero":0},"kind":"k","seq":0,"t":30.0,"v":1}'
        )
        assert sink.getvalue() == line + "\n"
        (event,) = _read(sink)
        assert event.canonical() == line
        assert [type(event.fields[name]) for name in ("yes", "one", "f")] == [
            bool, int, float
        ]

    def test_non_finite_and_exotic_values_take_the_fallback(self):
        event = Event(
            seq=7, t=1.5, kind="k", component="c", subject=None,
            fields={"nan": math.nan, "inf": math.inf, "nested": {"b": [1, {"a": None}]}},
        )
        assert event.canonical() == _reference_line(event)
        assert '"inf":Infinity' in event.canonical()


class TestEventBus:
    def test_emit_assigns_monotonic_seq(self):
        sink = io.StringIO()
        bus = EventBus(sink=sink)
        for i in range(5):
            bus.emit("tick", float(i), "test")
        assert [e.seq for e in _read(sink)] == list(range(5))
        assert bus.total == 5

    def test_bus_keeps_no_event_but_digests_every_one(self):
        """Without a sink nothing can read an event back, yet the
        digest, total and counts cover every emission."""
        sink = io.StringIO()
        bare, logged = EventBus(), EventBus(sink=sink)
        for i in range(10):
            bare.emit("tick", float(i), "test", n=i)
            logged.emit("tick", float(i), "test", n=i)
        assert not hasattr(bare, "events")
        assert bare.total == 10 and bare.counts == {"tick": 10}
        assert bare.digest() == logged.digest() == hashlib.sha256(
            sink.getvalue().encode("utf-8")
        ).hexdigest()

    def test_digest_ignores_sink(self, tmp_path):
        a = EventBus()
        b = EventBus(sink=str(tmp_path / "events.jsonl"))
        for bus in (a, b):
            bus.emit("x", 1.0, "c", k="v")
            bus.emit("y", 2.0, "c")
        b.close()
        assert a.digest() == b.digest()

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus(sink=str(path))
        bus.emit("a", 1.0, "c", value=7)
        bus.emit("b", 2.0, "c")
        bus.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        events = [Event.from_json(json.loads(line)) for line in lines]
        assert events[0].fields == {"value": 7}
        assert events[1].kind == "b"

    def test_path_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("stale\n")
        bus = EventBus(sink=path)
        bus.emit("a", 1.0, "c", value=7)
        bus.close()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["fields"] == {"value": 7}

    def test_bus_has_no_history_to_size(self):
        bus = EventBus()
        for name in ("capacity", "evicted", "events", "_ring"):
            assert not hasattr(bus, name), name
        with pytest.raises(TypeError):
            len(bus)

    def test_emit_leaves_the_collector_nothing_to_track(self):
        """2,000 events with list and dict fields, on a bare bus and on
        one with a sink, add no object the cyclic collector walks."""
        buses = [EventBus(), EventBus(sink=io.StringIO())]
        for bus in buses:
            bus.emit("k", 0.0, "c", subject="s", hops=[0], seen={"a": 0})
        gc.collect()
        before = len(gc.get_objects())
        for i in range(2000):
            for bus in buses:
                bus.emit(
                    "k", float(i), "c", subject="s",
                    hops=[i, i + 1], seen={"a": i, "b": [i]},
                )
        gc.collect()
        assert len(gc.get_objects()) - before < 50
        assert [bus.total for bus in buses] == [2001, 2001]

    def test_counts_per_kind(self):
        bus = EventBus()
        bus.emit("a", 0.0, "c")
        bus.emit("a", 1.0, "c")
        bus.emit("b", 2.0, "c")
        assert bus.counts == {"a": 2, "b": 1}

    def test_emit_increments_registry_counter(self):
        registry = MetricsRegistry()
        bus = EventBus(metrics=registry)
        bus.emit("probe.ping", 0.0, "dataplane.prober")
        assert registry.counter_values()["obs.events.probe.ping"] == 1

    def test_observe_routes_to_registry_histogram(self):
        registry = MetricsRegistry()
        bus = EventBus(metrics=registry)
        bus.observe("isolation.elapsed_seconds", 2.5)
        assert (
            registry.histogram_totals()["isolation.elapsed_seconds"] == 2.5
        )

    def test_observe_without_registry_is_noop(self):
        EventBus().observe("anything", 1.0)  # must not raise


class TestErrorEvents:
    def test_error_context_is_sorted_and_typed(self):
        exc = MeasurementError(
            "probe timed out", vp="vp0", target="1.2.3.4",
            component="measure.monitor", sim_time=42.0,
        )
        ctx = error_context(exc)
        assert list(ctx) == sorted(ctx)
        assert ctx["type"] == "MeasurementError"
        assert ctx["component"] == "measure.monitor"
        assert ctx["sim_time"] == 42.0
        assert ctx["subject"] == "vp0|1.2.3.4"

    def test_error_context_plain_exception(self):
        ctx = error_context(ValueError("nope"))
        assert ctx == {"message": "nope", "type": "ValueError"}

    def test_emit_error(self):
        sink = io.StringIO()
        bus = EventBus(sink=sink)
        exc = MeasurementError("boom", vp="vp0", target="t")
        bus.emit_error(
            "isolation.failed", 5.0, "isolation.isolator", exc,
            subject="vp0|t",
        )
        (event,) = _read(sink)
        assert event.kind == "isolation.failed"
        assert event.fields["error"]["type"] == "MeasurementError"
        assert event.fields["error"]["vp"] == "vp0"


class TestContextualErrors:
    def test_message_keeps_legacy_suffix(self):
        exc = MeasurementError("probe lost", vp="vp1", target="9.9.9.9")
        assert "[vp=vp1, target=9.9.9.9]" in str(exc)

    def test_context_empty_without_kwargs(self):
        with pytest.raises(MeasurementError) as info:
            raise MeasurementError("bare")
        assert info.value.context == {}
