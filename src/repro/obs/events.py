"""Deterministic structured event bus: the spine of `repro.obs`.

Every instrumented component — the BGP engine, the prober, the monitor,
the isolator, the guard, the Lifeguard control loop — holds an optional
``obs`` attribute.  When a caller wires an :class:`EventBus` through
:meth:`~repro.control.lifeguard.Lifeguard.attach_observer`, each of them
emits schema-versioned events; when no bus is attached, the single
``if self.obs is not None`` branch is the entire cost, so un-observed
runs stay byte-identical to the pre-obs code.

Determinism is the design constraint everything else bends around: an
event's identity is its **sequence number plus simulation time** — never
a wall clock, never a process id — so the event log (and its running
SHA-256 digest) for a given seed is byte-identical whether the experiment
ran serially or fanned out over eight workers.  That makes event logs
*diffable artifacts*: CI records them, and a digest mismatch between
worker counts is a reproducibility bug by definition.

The bus keeps no event.  It sequences each one, hashes its canonical
line into a running digest, counts it per kind and writes the line to a
JSONL sink when a reader attached one before the run — a file, or an
``io.StringIO`` for a reader that wants the log in memory.  The sink is
the log: :func:`repro.obs.export.read_events_jsonl` parses it back into
:class:`Event` values.  A run nobody reads pays for no history.

A line is split at ``seq``: :func:`prepare` renders everything but
``seq`` and ``t`` once, and :meth:`EventBus.emit_prepared` joins the
two in.  ``emit`` is the two in a row; a caller that emits the same
event over and over (the prober, once per probe) keeps the prepared
parts and renders no JSON in steady state.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, IO, Optional, Tuple

from repro.errors import error_context
from repro.net.addr import Prefix

#: Bump on incompatible changes to the serialized event layout.
EVENT_SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Coerce *value* into something ``json.dumps`` renders canonically.

    Dicts are key-sorted, tuples/sets become sorted-or-ordered lists, and
    anything exotic collapses to ``str(value)`` — events must serialize
    the same way in every process or the digest guarantee dies.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, Prefix):  # a tuple, but it renders as its text
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    return str(value)


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _encode(value: Any) -> str:
    """*value* as compact sorted-key ``json.dumps`` renders it: None,
    scalars and int sequences by the functions json itself ends in, the
    rest by json itself over the :func:`_jsonable` form."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and -_INF < value < _INF:
        return float.__repr__(value)
    if (kind is tuple or kind is list) and all(
        type(item) is int for item in value
    ):  # an AS path
        return "[" + ",".join(map(int.__repr__, value)) + "]"
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


def _encode_time(t: Any) -> str:
    t = float(t)
    return float.__repr__(t) if -_INF < t < _INF else _encode(t)


#: What every canonical line ends in, after ``t``'s value.
_TAIL = ',"v":' + str(EVENT_SCHEMA_VERSION) + "}"
_TAIL_LINE = _TAIL + "\n"

#: ``(kind, head, mid)``: an event's canonical line without its ``seq``
#: and ``t``, which go after ``head`` and after ``mid`` respectively.
Prepared = Tuple[str, str, str]


@lru_cache(maxsize=None)
def _head_template(
    kind: str, component: str, names: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], str]:
    """One event shape's field names in sorted order and its head as a
    ``%`` template: sorted keys, ``kind`` / ``component`` and the names
    as literals, a ``%s`` per field value."""
    names = tuple(sorted(names))
    kind, component, *keys = (
        _encode_str(text).replace("%", "%%")
        for text in (kind, component, *names)
    )
    fields = ",".join(key + ":%s" for key in keys)
    return names, (
        '{"component":' + component
        + (',"fields":{' + fields + "}" if names else "")
        + ',"kind":' + kind + ',"seq":'
    )


def _prepare(
    kind: str, component: str, subject: Any, fields: Dict[str, Any]
) -> Prepared:
    """:func:`prepare` over a fields dict, so an :class:`Event` renders
    whatever its field names are (``kind`` and ``subject`` included)."""
    names, template = _head_template(kind, component, tuple(fields))
    head = template % tuple([_encode(fields[name]) for name in names])
    if subject is None:
        return kind, head, ',"t":'
    return kind, head, ',"subject":' + _encode(subject) + ',"t":'


def prepare(
    kind: str, component: str, subject: Any = None, **fields: Any
) -> Prepared:
    """The invariant part of an event's canonical line, rendered once:
    everything up to and including ``"seq":`` (the *head*), then the
    subject and ``,"t":`` (the *mid*).  A caller that emits the same
    event again and again keeps the result and hands it to
    :meth:`EventBus.emit_prepared`."""
    return _prepare(kind, component, subject, fields)


@dataclass(slots=True)
class Event:
    """One observed fact, stamped with sim time and a sequence number."""

    seq: int
    t: float
    kind: str
    component: str
    subject: Optional[str] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        blob: Dict[str, Any] = {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "component": self.component,
        }
        if self.subject is not None:
            blob["subject"] = self.subject
        if self.fields:
            blob["fields"] = {
                k: self.fields[k] for k in sorted(self.fields)
            }
        return blob

    def canonical(self) -> str:
        """The digest-stable serialized form: :meth:`to_json` with
        sorted keys and no spaces, joined as :meth:`EventBus.emit_prepared`
        joins it."""
        _, head, mid = _prepare(
            self.kind, self.component, self.subject, self.fields
        )
        return f"{head}{self.seq}{mid}{_encode_time(self.t)}{_TAIL}"

    @classmethod
    def from_json(cls, blob: Dict[str, Any]) -> "Event":
        return cls(
            seq=int(blob["seq"]),
            t=float(blob["t"]),
            kind=blob["kind"],
            component=blob["component"],
            subject=blob.get("subject"),
            fields=dict(blob.get("fields", {})),
        )


class EventBus:
    """Digest-carrying event stream with an optional JSONL sink.

    The bus keeps no event: ``total``, ``counts`` and the running
    :meth:`digest` cover every one, and *sink* receives one canonical
    JSON line per event as it happens.  *sink* is a path — ``str``,
    ``bytes`` or ``os.PathLike``, truncated on open — or an open text
    handle.  *metrics* is an optional
    :class:`~repro.obs.metrics.MetricsRegistry`; every emitted event
    increments its ``obs.events.<kind>`` counter, and components may
    route histogram observations through :meth:`observe`.
    """

    def __init__(
        self,
        sink: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.metrics = metrics
        #: events emitted over the bus's whole life.
        self.total = 0
        #: per-kind emission counts.
        self.counts: Dict[str, int] = {}
        #: kind -> its ``obs.events.<kind>`` counter in ``metrics``
        #: (registries never drop a counter, so the handle stays good).
        self._kind_counters: Dict[str, Any] = {}
        self._hash = hashlib.sha256()
        self._sink_fh: Optional[IO[str]] = None
        self._owns_sink = False
        if sink is not None:
            if isinstance(sink, (str, bytes, os.PathLike)):
                self._sink_fh = open(sink, "w", encoding="utf-8")
                self._owns_sink = True
            else:
                self._sink_fh = sink

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        t: float,
        component: str,
        subject: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Record one event: :func:`prepare` it and
        :meth:`emit_prepared` it."""
        self.emit_prepared(_prepare(kind, component, subject, fields), t)

    def emit_prepared(self, prepared: Prepared, t: float) -> None:
        """Record one :func:`prepare`-d event at *t*: sequence it, hash
        its canonical line and write the line to the sink."""
        kind, head, mid = prepared
        # A finite float, as sim time nearly always is, skips a call.
        time = (
            repr(t) if type(t) is float and -_INF < t < _INF
            else _encode_time(t)
        )
        line = f"{head}{self.total}{mid}{time}{_TAIL_LINE}"
        self.total += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._hash.update(line.encode("utf-8"))
        if self._sink_fh is not None:
            self._sink_fh.write(line)
        if self.metrics is not None:
            counter = self._kind_counters.get(kind)
            if counter is None:
                counter = self._kind_counters[kind] = self.metrics.counter(
                    f"obs.events.{kind}"
                )
            counter.inc()

    def emit_error(
        self,
        kind: str,
        t: float,
        component: str,
        exc: BaseException,
        subject: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Emit a failure event carrying the exception's structured
        context (see :func:`repro.errors.error_context`) instead of a
        bare ``str(exc)``."""
        fields["error"] = error_context(exc)
        self.emit(kind, t, component, subject=subject, **fields)

    def observe(self, name: str, value: float) -> None:
        """Route a histogram observation to the attached registry
        (no-op without one) — lets instrumented components record
        distributions without importing the metrics module."""
        if self.metrics is not None:
            self.metrics.observe(name, value)

    def digest(self) -> str:
        """SHA-256 over the canonical line of every event ever emitted,
        so two runs agree iff they emitted the identical event sequence
        — the property the cross-worker determinism test asserts."""
        return self._hash.hexdigest()

    # ------------------------------------------------------------------
    # Sink management
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._sink_fh is not None:
            self._sink_fh.flush()

    def close(self) -> None:
        if self._sink_fh is not None:
            self._sink_fh.flush()
            if self._owns_sink:
                self._sink_fh.close()
            self._sink_fh = None
