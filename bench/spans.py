"""Span tracing installed from outside the program under test.

The benchmark measures layers *from outside*: a traced episode replaces
public functions of ``repro.*`` with timing wrappers for the length of
the episode and puts the originals back afterwards.  Nothing in ``src/``
knows about it, and the end-to-end metrics never come from a traced run.

A span is ``(name, start, end, parent, op_id)``: *parent* is the index
of the span that was open when this one started (-1 at the top), *op_id*
the index of the round / step / case being timed (-1 during set-up).
Spans live in one in-memory list until the episode ends.  A layer's
self time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, class or None, attribute).  Several targets may
#: share one span name; the layer then reports their sum.
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("service.run_round", "repro.service.daemon", "LifeguardService",
     "run_round"),
    ("measure.monitor_round", "repro.measure.monitor", "PingMonitor",
     "run_round"),
    ("dataplane.ping", "repro.dataplane.probes", "Prober", "ping"),
    ("dataplane.traceroute", "repro.dataplane.probes", "Prober",
     "traceroute"),
    ("dataplane.rr_ping", "repro.dataplane.probes", "Prober", "rr_ping"),
    ("dataplane.forward", "repro.dataplane.forwarding", "DataPlane",
     "forward"),
    ("dataplane.fib_lookup", "repro.dataplane.fib", "FibSnapshot",
     "next_hop_as"),
    ("dataplane.failure_match", "repro.dataplane.failures", "FailureSet",
     "router_drops"),
    ("dataplane.failure_match", "repro.dataplane.failures", "FailureSet",
     "link_drops"),
    ("dataplane.build_fibs", "repro.dataplane.fib", None, "build_fibs"),
    ("traffic.observe", "repro.traffic.impact", "ImpactLedger",
     "observe"),
    ("traffic.flat_compile", "repro.traffic.lpm", "FlatLPM", "compile"),
    ("traffic.flat_attach", "repro.traffic.lpm", "FlatFibSet", "attach"),
    ("isolation.isolate", "repro.isolation.isolator", "FailureIsolator",
     "isolate"),
    ("control.begin_round", "repro.control.lifeguard", "Lifeguard",
     "begin_round"),
    ("control.stage_isolate", "repro.control.lifeguard", "Lifeguard",
     "stage_isolate"),
    ("control.stage_verify", "repro.control.lifeguard", "Lifeguard",
     "stage_verify"),
    ("control.stage_retry", "repro.control.lifeguard", "Lifeguard",
     "stage_retry"),
    ("control.stage_check", "repro.control.lifeguard", "Lifeguard",
     "stage_check"),
    ("control.refresh_dataplane", "repro.control.lifeguard", "Lifeguard",
     "refresh_dataplane"),
    ("control.journal_append", "repro.control.journal", "RepairJournal",
     "append"),
    ("obs.emit", "repro.obs.events", "EventBus", "emit"),
    ("bgp.announce", "repro.bgp.origin", "OriginController",
     "announce_baseline"),
    ("bgp.announce", "repro.bgp.origin", "OriginController", "poison"),
    ("bgp.announce", "repro.bgp.origin", "OriginController",
     "steer_prepend"),
    ("bgp.announce", "repro.bgp.origin", "OriginController", "unpoison"),
    ("bgp.delta_apply", "repro.bgp.delta", None, "try_apply_delta"),
    ("bgp.engine_run", "repro.bgp.engine", "BGPEngine", "run"),
    ("bgp.warm_start", "repro.bgp.engine", "BGPEngine", "warm_start"),
    ("bgp.solve", "repro.bgp.solver", None, "solve"),
    ("bgp.converge", "repro.runner.baseline", None, "converged_internet"),
    ("fuzz.generate", "repro.fuzz.gen", None, "generate_case"),
    ("fuzz.run_case", "repro.fuzz.executor", None, "run_case"),
    ("fuzz.capture", "repro.fuzz.diff", None, "capture_state"),
    ("fuzz.canonical_blob", "repro.fuzz.diff", None, "canonical_blob"),
)

#: Per-call samples taken beside a span (not times): name -> values.
SAMPLE_DIRTY_ASNS = "dataplane.fib_dirty_asns"
SAMPLE_ISOLATION_PROBES = "isolation.probes"


class Tracer:
    """Installs the wrappers, owns the spans, restores the originals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: (name id, start, end, parent span index, op id) per span; a
        #: slot is reserved at entry so a parent precedes its children.
        self.spans: List[Optional[Tuple[int, float, float, int, int]]] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.op_id = -1
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """*fn* inside a span; *before(args)* returns a token handed to
        *after(token, args)* once the span has closed."""
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id)
                if after is not None:
                    after(token, args)

        return traced

    def _hooks(self, name: str):
        """Per-call samples for the two layers that need more than a
        time and a count."""
        if name == "dataplane.build_fibs":
            def before(args, kwargs):
                # build_fibs(engine, previous=None, dirty_asns=None)
                dirty = kwargs.get(
                    "dirty_asns", args[2] if len(args) > 2 else None
                )
                if dirty is not None:
                    self.samples[SAMPLE_DIRTY_ASNS].append(len(dirty))
            return before, None
        if name == "isolation.isolate":
            def before(args, kwargs):
                return args[0].prober.probes_sent

            def after(token, args):
                self.samples[SAMPLE_ISOLATION_PROBES].append(
                    args[0].prober.probes_sent - token
                )
            return before, after
        return None, None

    def install(self, also: Tuple[Any, ...] = ()) -> None:
        """Replace every target; importing the modules is part of it.

        *also* lists modules outside ``repro`` (the benchmark's own)
        whose ``from repro... import f`` copies must be traced too.
        """
        for _name, module_name, _class_name, _attr in TARGETS:
            importlib.import_module(module_name)
        holders = [
            module
            for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("repro")
        ]
        holders.extend(also)
        for name, module_name, class_name, attr in TARGETS:
            module = sys.modules[module_name]
            before, after = self._hooks(name)
            if class_name is None:
                original = getattr(module, attr)
                traced = self._wrap(name, original, before, after)
                # ``from x import f`` copies: patch every module that
                # holds the same function object under any name.
                for other in holders:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._undo.append((other, key, original))
                            setattr(other, key, traced)
                continue
            owner = getattr(module, class_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(
                    self._wrap(name, raw.__func__, before, after)
                )
            else:
                traced = self._wrap(name, raw, before, after)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """(self seconds, call count) per span name over every span."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                covered[parent] += end - start
        seconds: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        for index, (name_id, start, end, _parent, _op) in enumerate(spans):
            name = self.names[name_id]
            seconds[name] += (end - start) - covered[index]
            counts[name] += 1
        return dict(seconds), dict(counts)

    def top_level_seconds(self) -> float:
        """Wall time the root spans of the timed operations cover."""
        return sum(
            end - start
            for _name, start, end, parent, op in self.spans
            if parent < 0 and op >= 0
        )

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, op_id."""
        with open(path, "w", encoding="utf-8") as out:
            for name_id, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    [self.names[name_id], start, end, parent, op]
                ))
                out.write("\n")
