"""Incremental convergence (repro.bgp.delta): splice-back identity.

The contract under test: applying a change set through ``apply_delta``
leaves the engine holding exactly the rows (``capture_state`` over
every prefix, ``prefixes=None``) of (a) a full event-engine replay of
the same announcement story and (b) a cold ``solve`` + ``warm_start`` of the
post-change origination set.  Seeds come from ``REPRO_DELTA_SEEDS``
(comma-separated) so CI can sweep a matrix.

Also pinned here: the gate's refusal vocabulary (with fallback
accounting), the per-engine solution memo, reset-as-no-op semantics,
``bgp.delta`` observability, and cross-worker digest determinism of
delta-instrumented runs.
"""

import io
import os

import pytest

from repro.bgp.delta import (
    DeltaChange,
    apply_delta,
    delta_unsupported_reason,
    try_apply_delta,
)
from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.messages import make_path
from repro.bgp.origin import OriginController
from repro.bgp.solver import Refusal, SolverUnsupported, solve
from repro.control.lifeguard import LifeguardConfig
from repro.errors import ControlError
from repro.fuzz.diff import canonical_blob, capture_state
from repro.obs.events import EventBus
from repro.obs.export import read_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.runner.baseline import (
    MODE_SOLVER,
    ORIGIN_ASN_EVEN,
    converged_internet,
    restore_snapshot,
)
from repro.runner.core import run_trials
from repro.runner.stats import RunStats

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_DELTA_SEEDS", "0,1,2").split(",")
    if s.strip()
)


def _deployment(scale, seed):
    return converged_internet(
        scale,
        seed,
        mode=MODE_SOLVER,
        origin_providers=2,
        origin_asn_policy=ORIGIN_ASN_EVEN,
    )


def _story(controller, graph, origin):
    """The CI smoke ladder: poison -> verify (steer) -> unpoison."""
    target = sorted(graph.providers(origin))[0]
    controller.announce_baseline()
    yield
    controller.poison([target], key="repair")
    yield
    controller.steer_prepend([controller.providers[0]], key="repair")
    yield
    controller.unpoison("repair")
    yield


def _replay(base, mode):
    engine, _ = restore_snapshot(base.snapshot())
    origin = base.origin_asn
    prefix = base.graph.node(origin).prefixes[0]
    controller = OriginController(engine, origin, prefix, delta_mode=mode)
    captures = []
    for _ in _story(controller, base.graph, origin):
        engine.run()
        engine.advance_to(engine.now + 600.0)
        captures.append(canonical_blob(capture_state(engine, None)))
    return captures, controller, engine


class TestByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_delta_matches_full_replay(self, seed):
        base = _deployment("small", seed)
        full, _, _ = _replay(base, "off")
        delta, controller, _ = _replay(base, "auto")
        assert controller.delta_fallbacks == 0
        assert controller.delta_applied > 0
        assert delta == full

    def test_first_bench_ladder_whole_state(self):
        """The repository benchmark's ``repair_ladder`` check replays
        its first ladder under ``auto`` and ``off`` but captures the
        production prefix only (``bench/`` is frozen while a PR claims
        a gain).  Same ladder shape here — medium, poison, deeper
        multi-poison, prepend, unpoison — compared over every prefix
        at the deepest poison and after the unpoison."""
        base = _deployment("medium", 0)
        graph, origin = base.graph, base.origin_asn
        prefix = graph.node(origin).prefixes[0]
        target = min(graph.providers(origin))
        extra = min(
            (asn for asn in graph.transit_ases()
             if asn not in (origin, target)),
            key=lambda asn: (-graph.degree(asn), asn),
        )
        snapshot = base.snapshot()

        def checkpoints(mode):
            engine, _ = restore_snapshot(snapshot)
            controller = OriginController(
                engine, origin, prefix, delta_mode=mode
            )
            digests = []
            for index, announce in enumerate((
                controller.announce_baseline,
                lambda: controller.poison([target], key="repair"),
                lambda: controller.poison([target, extra], key="repair"),
                lambda: controller.steer_prepend(
                    [controller.providers[0]], key="repair"
                ),
                lambda: controller.unpoison("repair"),
            )):
                engine.advance_to(engine.now + 600.0)
                announce()
                engine.run()
                if index in (2, 4):
                    digests.append(
                        canonical_blob(capture_state(engine, None))
                    )
            return digests, controller

        off, _ = checkpoints("off")
        auto, controller = checkpoints("auto")
        assert controller.delta_fallbacks == 0
        assert controller.delta_applied == 5
        assert off[0] != off[1], "the poison must be visible"
        assert auto == off

    def test_delta_matches_cold_solve(self):
        base = _deployment("small", SEEDS[0])
        _, _, engine = _replay(base, "auto")
        # Mid-ladder state too, not just the final baseline: poison once
        # more so the compared state carries a live poison.
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        controller = OriginController(
            engine, origin, prefix, delta_mode="auto"
        )
        controller.announce_baseline()
        controller.poison([sorted(base.graph.providers(origin))[0]])
        assert controller.delta_fallbacks == 0

        originations = sorted(
            (sol.origination for sol in engine._analytic.values()),
            key=lambda org: (org.prefix.base, org.prefix.length),
        )
        cold = BGPEngine(base.graph, EngineConfig(seed=SEEDS[0]))
        cold.warm_start(solve(cold, originations))
        assert capture_state(engine, None) == capture_state(cold, None)

    def test_withdraw_and_reannounce_round_trip(self):
        base = _deployment("tiny", 0)
        engine = base.engine
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        before = capture_state(engine, None)
        apply_delta(
            engine, [DeltaChange.originate(origin, prefix, path=None)]
        )
        assert capture_state(engine, None) != before
        apply_delta(engine, [DeltaChange.withdraw(origin, prefix)])
        assert prefix not in engine._analytic
        assert capture_state(engine, None) == before

    def test_reset_is_a_counted_fixpoint_noop(self):
        base = _deployment("tiny", 1)
        engine = base.engine
        before = capture_state(engine, None)
        asn, peer = next(iter(engine._session_map))
        result = apply_delta(engine, [DeltaChange.reset(asn, peer)])
        assert result.resets == 1
        assert engine.session_resets == 1
        assert result.dirty_prefixes == []
        assert capture_state(engine, None) == before
        # A reset of a non-existent session is not counted.
        result = apply_delta(engine, [DeltaChange.reset(asn, asn)])
        assert result.resets == 0

    def test_idempotent_reannounce_is_skipped(self):
        base = _deployment("tiny", 2)
        engine = base.engine
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        change = DeltaChange.originate(
            origin, prefix, path=make_path(origin, prepend=2)
        )
        first = apply_delta(engine, [change])
        assert first.dirty_prefixes == [prefix]
        again = apply_delta(engine, [change])
        assert again.dirty_prefixes == []
        assert again.cone_size == 0


class TestSolutionMemo:
    def test_revisited_config_hits_the_memo(self):
        base = _deployment("tiny", 3)
        engine = base.engine
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        baseline = DeltaChange.originate(
            origin, prefix, path=make_path(origin, prepend=3)
        )
        target = sorted(base.graph.providers(origin))[0]
        poison = DeltaChange.originate(
            origin, prefix, path=make_path(origin, prepend=2, poison=[target])
        )
        stats = RunStats()
        apply_delta(engine, [baseline], stats=stats)
        apply_delta(engine, [poison], stats=stats)
        hit = apply_delta(engine, [baseline], stats=stats)
        assert hit.solve_cache_hits == 1
        assert hit.solve_seconds == 0.0
        assert stats.counters["solver.delta.solve_cache_hits"] == 1

    def test_event_path_activity_clears_the_memo(self):
        base = _deployment("tiny", 3)
        engine = base.engine
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        apply_delta(
            engine, [DeltaChange.originate(origin, prefix, path=None)]
        )
        assert engine._delta_solutions
        engine.originate(origin, prefix, path=make_path(origin, prepend=1))
        engine.run()
        assert engine._delta_solutions == {}
        assert engine._analytic is None


class TestGate:
    @staticmethod
    def _engine(seed=4):
        base = _deployment("tiny", seed)
        return base, base.engine

    def test_mode_resolution(self, monkeypatch):
        base, engine = self._engine()
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        # The environment is not a second way to say it.
        monkeypatch.setenv("REPRO_DELTA_MODE", "auto")
        assert OriginController(engine, origin, prefix).delta_mode == "off"
        assert LifeguardConfig().delta_mode == "off"
        for mode in ("off", "auto"):
            controller = OriginController(
                engine, origin, prefix, delta_mode=mode
            )
            assert controller.delta_mode == mode
        for bad in ("sideways", None, ""):
            with pytest.raises(ControlError, match="unknown delta mode"):
                OriginController(engine, origin, prefix, delta_mode=bad)

    def test_refusals(self):
        """Every refusal site of the splice gate, by slug and by its
        exact reason text."""
        base, engine = self._engine()
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        ok = DeltaChange.originate(origin, prefix)

        assert delta_unsupported_reason(engine, [ok]) is None

        hook, engine.fault_hook = engine.fault_hook, lambda m: m
        assert delta_unsupported_reason(engine, [ok]) == Refusal(
            "fault_hook",
            "fault hook attached (message faults need the event engine)",
        )
        engine.fault_hook = hook

        engine._queue.append(object())
        assert delta_unsupported_reason(engine, [ok]) == Refusal(
            "events_pending", "events pending (delta needs a quiescent engine)"
        )
        engine._queue.pop()

        avoid = DeltaChange.originate(origin, prefix, avoid=(1,))
        assert delta_unsupported_reason(engine, [avoid]) == Refusal(
            "avoid_hint", "avoid-hint announcements need the event engine"
        )

        tagged = DeltaChange.originate(
            origin, prefix, communities=((64512, 1),)
        )
        assert delta_unsupported_reason(engine, [tagged]) == Refusal(
            "communities", "communities need the event engine"
        )

        bad_path = DeltaChange.originate(origin, prefix, path=(origin, 0))
        assert delta_unsupported_reason(engine, [bad_path]) == Refusal(
            "invalid_path",
            f"invalid origin path {(origin, 0)} for AS{origin} "
            "(the event engine raises)",
        )
        # An empty path is refused too (the event engine raises on it),
        # and try_apply_delta counts the fallback instead of raising.
        neighbor = next(iter(engine.speakers[origin].neighbors))
        for empty in (
            DeltaChange.originate(origin, prefix, path=()),
            DeltaChange.originate(origin, prefix, per_neighbor={neighbor: ()}),
        ):
            assert delta_unsupported_reason(engine, [empty]) == Refusal(
                "invalid_path",
                f"invalid origin path () for AS{origin} "
                "(the event engine raises)",
            )
            stats = RunStats()
            assert try_apply_delta(engine, [empty], stats=stats) is None
            assert stats.counters["solver.delta.fallbacks.invalid_path"] == 1

        stranger = DeltaChange.originate(10**9, prefix)
        assert delta_unsupported_reason(engine, [stranger]) == Refusal(
            "unknown_origin", f"origination from unknown AS{10**9}"
        )

        taken, solution = next(iter(engine._analytic.items()))
        owner = solution.origination.asn
        other = next(
            asn for asn in engine.speakers if asn != owner
        )
        moas = DeltaChange.originate(other, taken)
        assert delta_unsupported_reason(engine, [moas]) == Refusal(
            "duplicate_prefix",
            f"multiple originations of {taken} "
            "(anycast/MOAS needs the event engine)",
        )

        weird = DeltaChange(kind="frobnicate")
        assert delta_unsupported_reason(engine, [weird]) == Refusal(
            "unknown_change", "unknown delta change kind 'frobnicate'"
        )

        # The speaker-config check is the solver's own, slug and text.
        engine.speakers[origin].reconfigure(flap_damping=True)
        assert delta_unsupported_reason(engine, [ok]) == Refusal(
            "flap_damping", f"AS{origin}: flap_damping"
        )

    def test_event_activity_turns_the_gate_off(self):
        base, engine = self._engine(5)
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        engine.originate(origin, prefix)
        engine.run()
        refusal = delta_unsupported_reason(
            engine, [DeltaChange.originate(origin, prefix)]
        )
        assert refusal == Refusal(
            "not_analytic",
            "engine state is not analytic "
            "(cold start or event-path activity)",
        )
        with pytest.raises(SolverUnsupported, match="not analytic"):
            apply_delta(engine, [DeltaChange.originate(origin, prefix)])

    def test_try_apply_counts_and_emits_the_fallback(self):
        base, engine = self._engine(6)
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        stats = RunStats()
        bus = EventBus(metrics=MetricsRegistry())
        engine.obs = bus
        change = DeltaChange.originate(origin, prefix, avoid=(1,))
        assert try_apply_delta(engine, [change], stats=stats) is None
        assert stats.counters["solver.delta.fallbacks"] == 1
        assert stats.counters["solver.delta.fallbacks.avoid_hint"] == 1
        assert bus.counts["bgp.delta-fallback"] == 1
        snapshot = bus.metrics.snapshot()
        assert snapshot["counters"]["solver.delta.fallbacks"] == 1


class TestControllerPlumbing:
    def test_off_by_default_and_counters_in_auto(self):
        base = _deployment("tiny", 7)
        engine = base.engine
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        off = OriginController(engine, origin, prefix)
        assert off.delta_mode == "off"
        off.announce_baseline()
        assert off.delta_applied == 0
        # Event-path announcement invalidated the analytic state, so an
        # auto controller on the same engine falls back (and counts).
        engine.run()
        auto = OriginController(engine, origin, prefix, delta_mode="auto")
        auto.announce_baseline()
        assert auto.delta_applied == 0
        assert auto.delta_fallbacks > 0

    def test_auto_controller_records_cones(self):
        base = _deployment("tiny", 8)
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        controller = OriginController(
            base.engine, origin, prefix, delta_mode="auto"
        )
        controller.announce_baseline()
        controller.poison([sorted(base.graph.providers(origin))[0]])
        assert controller.delta_fallbacks == 0
        assert controller.delta_applied == 2
        assert controller.delta_cone_sizes
        assert controller.last_delta is not None
        assert controller.last_delta.cone_size == max(
            controller.delta_cone_sizes[-1], 0
        )


class TestObservability:
    def test_bgp_delta_event_fields(self):
        base = _deployment("tiny", 9)
        engine = base.engine
        sink = io.StringIO()
        bus = EventBus(sink=sink, metrics=MetricsRegistry())
        engine.obs = bus
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        target = sorted(base.graph.providers(origin))[0]
        apply_delta(
            engine, [DeltaChange.originate(origin, prefix, path=None)]
        )
        apply_delta(
            engine,
            [
                DeltaChange.originate(
                    origin,
                    prefix,
                    path=make_path(origin, prepend=2, poison=[target]),
                )
            ],
        )
        sink.seek(0)
        deltas = [
            e for e in read_events_jsonl(sink) if e.kind == "bgp.delta"
        ]
        assert len(deltas) == 2
        poisoned = deltas[-1]
        assert poisoned.fields["prefixes"] == 1
        assert poisoned.fields["cone"] > 0
        assert poisoned.fields["rerouted"] >= 0
        assert poisoned.fields["resets"] == 0
        histograms = bus.metrics.snapshot()["histograms"]
        assert "solver.delta.cone_size" in histograms
        assert "solver.delta.splice_seconds" in histograms

    def test_stats_counters_and_timers(self):
        base = _deployment("tiny", 10)
        engine = base.engine
        origin = base.origin_asn
        prefix = base.graph.node(origin).prefixes[0]
        stats = RunStats()
        apply_delta(
            engine,
            [DeltaChange.originate(origin, prefix, path=None)],
            stats=stats,
        )
        assert stats.counters["solver.delta.applied"] == 1
        assert stats.counters["solver.delta.prefixes"] == 1
        assert "solver.delta.solve" in stats.timers
        assert "solver.delta.splice" in stats.timers


def _digest_worker(context, seed):
    """Module-level for process-pool pickling (see run_trials)."""
    base = _deployment("tiny", seed)
    engine, _ = restore_snapshot(base.snapshot())
    bus = EventBus()
    engine.obs = bus
    origin = base.origin_asn
    prefix = base.graph.node(origin).prefixes[0]
    controller = OriginController(
        engine, origin, prefix, delta_mode="auto"
    )
    controller.obs = bus
    for _ in _story(controller, base.graph, origin):
        engine.run()
        engine.advance_to(engine.now + 600.0)
    assert bus.counts.get("bgp.delta", 0) > 0
    return bus.digest()


class TestDeterminism:
    def test_digest_is_worker_count_invariant(self):
        seeds = list(SEEDS)
        serial = run_trials(
            _digest_worker, seeds, workers=1, label="delta.digest"
        )
        parallel = run_trials(
            _digest_worker, seeds, workers=4, label="delta.digest"
        )
        assert serial == parallel
