"""The analytic Gao-Rexford solver vs event-driven convergence.

The load-bearing property: at every scale and seed, the solver's
converged state is routing-indistinguishable from the event engine's —
identical Loc-RIBs, identical forwarding next hops, identical advertised
session state — and perturbations applied after a warm start unfold
exactly as they would on an event-converged engine.

The two modes are *not* byte-identical: the event engine's bookkeeping
byproducts (``changes``, ``updates_sent``, advanced clock/RNG) record
the convergence storm, and in-flight message crossing can leave stale
Adj-RIB-In entries for withdrawn announcements (no per-session FIFO).
No baseline consumer reads any of that, which is what the
poison-equivalence test pins down.
"""

import dataclasses
import pickle

import pytest

from repro.bgp import messages
from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.origin import OriginController
from repro.bgp.policy import SpeakerConfig
from repro.bgp.solver import (
    Origination,
    Refusal,
    SolverUnsupported,
    solve,
    solver_unsupported_reason,
)
from repro.errors import SimulationError
from repro.fuzz.diff import canonical_blob, capture_state
from repro.runner.baseline import (
    MODE_EVENT,
    MODE_SOLVER,
    ORIGIN_ASN_EVEN,
    converged_internet,
    pack_snapshot,
    restore_snapshot,
    unpack_snapshot,
)
from repro.runner.stats import RunStats
from repro.topology.generate import InternetShape, generate_internet
from repro.workloads.scenarios import build_deployment

SEEDS = (0, 1, 2, 3, 4)
#: what a monkeypatched gate refuses with.
PATCHED = Refusal("patched", "patched: unsupported")


def _build_pair(scale, seed):
    solver = converged_internet(scale, seed, mode=MODE_SOLVER)
    event = converged_internet(scale, seed, mode=MODE_EVENT)
    return solver, event


def _assert_routing_equal(solver_engine, event_engine, label):
    assert set(solver_engine.speakers) == set(event_engine.speakers)
    prefixes = set()
    for asn, speaker in solver_engine.speakers.items():
        solver_loc = speaker.table.loc_rib()
        event_loc = event_engine.speakers[asn].table.loc_rib()
        assert solver_loc == event_loc, f"{label}: Loc-RIB differs at AS{asn}"
        prefixes.update(solver_loc)
    for prefix in prefixes:
        assert solver_engine.forwarding_next_hops(
            prefix
        ) == event_engine.forwarding_next_hops(
            prefix
        ), f"{label}: forwarding differs for {prefix}"


def _advertised_state(engine):
    """Per-session advertised announcements, withdrawn entries dropped.

    The event engine keeps ``sent[prefix] = None`` tombstones (and the
    odd stale Adj-RIB-In entry) where message crossing withdrew a route;
    what a neighbor would *act on* is the non-None advertisement set.
    """
    out = {}
    engine.materialize()
    for key, session in engine._session_map.items():
        live = {
            prefix: ann
            for prefix, ann in session.sent.items()
            if ann is not None
        }
        if live:
            out[key] = live
    return out


class TestSolverMatchesEventConvergence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_small(self, seed):
        solver, event = _build_pair("small", seed)
        _assert_routing_equal(
            solver.engine, event.engine, f"small/seed{seed}"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_medium(self, seed):
        solver, event = _build_pair("medium", seed)
        _assert_routing_equal(
            solver.engine, event.engine, f"medium/seed{seed}"
        )

    def test_advertised_session_state_matches(self):
        solver, event = _build_pair("small", 1)
        assert _advertised_state(solver.engine) == _advertised_state(
            event.engine
        )

    def test_multihomed_origin_attachment_matches(self):
        kwargs = dict(
            engine_config=EngineConfig(seed=5),
            origin_providers=2,
            origin_asn_policy=ORIGIN_ASN_EVEN,
        )
        solver = converged_internet("small", 5, mode=MODE_SOLVER, **kwargs)
        event = converged_internet("small", 5, mode=MODE_EVENT, **kwargs)
        assert solver.origin_asn == event.origin_asn
        _assert_routing_equal(solver.engine, event.engine, "origin/small")

    def test_warm_start_skips_bookkeeping(self):
        base = converged_internet("tiny", 0, mode=MODE_SOLVER)
        engine = base.engine
        assert engine.now == 0.0
        assert engine.changes == 0
        assert engine.updates_sent == {}
        # ... and yet every AS routes.
        prefix = next(iter(base.graph.nodes())).prefixes[0]
        hops = engine.forwarding_next_hops(prefix)
        assert set(hops) == set(engine.speakers)

    def test_solver_emits_metrics(self):
        stats = RunStats()
        base = converged_internet(
            "tiny", 0, mode=MODE_SOLVER, stats=stats
        )
        prefixes = sum(len(n.prefixes) for n in base.graph.nodes())
        assert stats.counters["solver.prefixes_solved"] == prefixes
        for phase in ("up", "across", "down", "install"):
            assert f"solver.phase_{phase}" in stats.timers


def _held_paths(solution):
    """Every AS-path tuple (an exact tuple of ints) reachable from
    *solution*'s state, by id: all but its inputs (prefix, origination)
    and the adjacency every solution shares."""
    stack = [
        getattr(solution, f.name)
        for f in dataclasses.fields(solution)
        if f.name not in ("prefix", "origination", "adjacency")
    ]
    seen, paths = set(), {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) is tuple and obj and all(type(x) is int for x in obj):
            paths[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return paths


class TestPathsOnDemand:
    """A solution holds one route per AS, and the solve builds a path
    only for an AS some receiver selected: a cold medium build holds
    9,696 distinct AS-path tuples, where one export path per final AS
    made 60,516.  A count, so it repeats exactly."""

    def test_every_held_path_is_a_selected_route_path(self):
        messages.clear_interned_paths()
        base = converged_internet("medium", 0, mode=MODE_SOLVER)
        held = {}
        for solution in base.engine._analytic.values():
            paths = _held_paths(solution)
            selected = {id(r.as_path) for r in solution.best.values()}
            assert paths.keys() <= selected, solution.prefix
            held.update(paths)
        assert len(held) == 9_696
        assert len(messages._interned_paths) == 9_696


class TestPostPoisonSweep:
    """Baseline equality extended through the repair lifecycle: after a
    poison and again after the unpoison, solver-seeded and event-seeded
    deployments (and a delta-spliced third arm) stay
    routing-indistinguishable — swept across seeds at both scales."""

    RUNGS = ("post-poison", "post-unpoison")

    @staticmethod
    def _ladder(scale, seed, mode, delta_mode="off"):
        """Converge in *mode*, then poison and unpoison; return the
        controller and one full-state blob per rung."""
        base = converged_internet(
            scale,
            seed,
            engine_config=EngineConfig(seed=seed),
            origin_providers=2,
            origin_asn_policy=ORIGIN_ASN_EVEN,
            mode=mode,
        )
        engine, graph = base.engine, base.graph
        engine.advance_to(engine.now + 60.0)
        engine.reseed(20120813)
        production = graph.node(base.origin_asn).prefixes[0]
        controller = OriginController(
            engine, base.origin_asn, production, delta_mode=delta_mode
        )
        controller.announce_baseline()
        engine.run()
        target = sorted(graph.providers(base.origin_asn))[0]
        blobs = []
        controller.poison([target])
        engine.run()
        blobs.append(canonical_blob(capture_state(engine, None)))
        controller.unpoison()
        engine.run()
        blobs.append(canonical_blob(capture_state(engine, None)))
        return controller, blobs

    def _sweep(self, scale, seed):
        _, solver_blobs = self._ladder(scale, seed, MODE_SOLVER)
        _, event_blobs = self._ladder(scale, seed, MODE_EVENT)
        delta_ctl, delta_blobs = self._ladder(
            scale, seed, MODE_SOLVER, delta_mode="auto"
        )
        assert delta_ctl.delta_fallbacks == 0
        assert delta_ctl.delta_applied > 0
        for label, solver_blob, event_blob, delta_blob in zip(
            self.RUNGS, solver_blobs, event_blobs, delta_blobs
        ):
            tag = f"{scale}/seed{seed}/{label}"
            assert solver_blob == event_blob, f"{tag}: solver != event"
            assert delta_blob == event_blob, f"{tag}: delta != event"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_small(self, seed):
        self._sweep("small", seed)

    @pytest.mark.parametrize("seed", (0, 3))
    def test_medium(self, seed):
        self._sweep("medium", seed)


class TestPoisonEquivalence:
    """A warm-started engine reacts to announcements exactly like an
    event-converged one: same route-change sequence (in time relative to
    the perturbation), same per-session update counts."""

    @staticmethod
    def _story(mode):
        base = converged_internet(
            "small",
            3,
            engine_config=EngineConfig(seed=3),
            origin_providers=2,
            origin_asn_policy=ORIGIN_ASN_EVEN,
            mode=mode,
        )
        engine, graph = base.engine, base.graph
        # Step past every MRAI window left over from convergence, then
        # pin both modes to one RNG stream, as trial drivers do.
        engine.advance_to(engine.now + 60.0)
        engine.reseed(20120813)
        t0 = engine.now
        updates_before = dict(engine.updates_sent)
        recorded = []
        engine.on_change.append(recorded.append)

        production = graph.node(base.origin_asn).prefixes[0]
        controller = OriginController(
            engine, base.origin_asn, production
        )
        controller.announce_baseline()
        engine.run()
        engine.advance_to(engine.now + 400.0)
        target = sorted(graph.providers(base.origin_asn))[0]
        controller.poison([target])
        settle = engine.run()

        changes = [
            (
                round(change.time - t0, 9),
                change.asn,
                str(change.prefix),
                change.old.as_path if change.old else None,
                change.new.as_path if change.new else None,
            )
            for change in recorded
            if change.time > t0
        ]
        deltas = {
            session: count - updates_before.get(session, 0)
            for session, count in engine.updates_sent.items()
            if count - updates_before.get(session, 0)
        }
        return changes, deltas, round(settle - t0, 9)

    def test_poison_unfolds_identically(self):
        solver_story = self._story(MODE_SOLVER)
        event_story = self._story(MODE_EVENT)
        assert solver_story[0], "poison produced no route changes"
        assert solver_story == event_story


class TestSolverFallback:
    @staticmethod
    def _engine(**speaker_kwargs):
        graph = generate_internet(
            InternetShape(num_tier1=2, num_tier2=4, num_stubs=8), seed=1
        )
        configs = (
            {asn: SpeakerConfig(**speaker_kwargs) for asn in graph.ases()}
            if speaker_kwargs
            else None
        )
        engine = BGPEngine(graph, EngineConfig(seed=1), configs)
        originations = [
            Origination.make(node.asn, prefix)
            for node in graph.nodes()
            for prefix in node.prefixes
        ]
        return engine, originations

    @pytest.mark.parametrize(
        "speaker_kwargs",
        [
            {"loop_max_occurrences": 2},
            {"reject_peer_paths_from_customers": True},
            {"honours_communities": True},
            {"local_pref_overrides": {1: 150}},
            {"flap_damping": True},
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_nonstandard_policy_is_refused(self, speaker_kwargs):
        engine, originations = self._engine(**speaker_kwargs)
        assert solver_unsupported_reason(engine, originations) is not None
        with pytest.raises(SolverUnsupported):
            solve(engine, originations)

    def test_prior_activity_is_refused(self):
        engine, originations = self._engine()
        engine.originate(originations[0].asn, originations[0].prefix)
        engine.run()
        refusal = solver_unsupported_reason(engine, originations)
        assert refusal is not None and refusal.slug == "prior_activity"

    def test_warm_start_requires_idle_engine(self):
        engine, originations = self._engine()
        fresh, _ = self._engine()
        result = solve(fresh, originations)
        engine.originate(originations[0].asn, originations[0].prefix)
        with pytest.raises(SimulationError):
            engine.warm_start(result)

    def test_auto_falls_back_and_counts(self, monkeypatch):
        monkeypatch.setattr(
            "repro.runner.baseline.solver_unsupported_reason",
            lambda engine, originations: PATCHED,
        )
        stats = RunStats()
        base = converged_internet(
            "tiny", 2, mode="auto", stats=stats
        )
        assert stats.counters["solver.fallbacks"] == 1
        assert stats.counters["solver.fallbacks.patched"] == 1
        assert base.engine.changes, "fallback should event-converge"

    def test_solver_mode_raises_instead_of_falling_back(self, monkeypatch):
        # In solver mode the refusal comes from ``solve``'s own gate.
        monkeypatch.setattr(
            "repro.bgp.solver.solver_unsupported_reason",
            lambda engine, originations: PATCHED,
        )
        with pytest.raises(SolverUnsupported, match="patched: unsupported"):
            converged_internet("tiny", 2, mode=MODE_SOLVER)


class TestBaselineModeplumbing:
    def test_an_unknown_mode_is_refused(self):
        with pytest.raises(SimulationError, match="warp"):
            converged_internet("tiny", 4, mode="warp")

    def test_cache_argument_accepts_only_none(self, tmp_path):
        with pytest.raises(TypeError):
            converged_internet("tiny", 4, cache=tmp_path)
        with pytest.raises(TypeError):
            build_deployment(scale="tiny", seed=4, cache=tmp_path)


class TestSnapshotCompression:
    def test_roundtrip_and_zlib_magic(self):
        payload = {"routes": [("AS", index % 7) for index in range(2000)]}
        packed = pack_snapshot(payload)
        assert packed[:1] == b"\x78"
        assert unpack_snapshot(packed) == payload
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(packed) < len(raw)

    def test_baseline_snapshot_restores_equivalent_engine(self):
        base = converged_internet("tiny", 6)
        engine, origin_asn = restore_snapshot(base.snapshot())
        assert origin_asn == base.origin_asn
        _assert_routing_equal(engine, base.engine, "snapshot/tiny")
