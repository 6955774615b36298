"""Lazy rows: a ``PrefixSolution`` is its prefix's routing state.

``BGPEngine.warm_start`` pins Loc-RIBs and origin state and leaves each
prefix's Adj-RIB-In and wire rows pending; ``BGPEngine.materialize``
writes them, from ``repro.bgp.solver.derive_rows``, before the event
path or an out-of-band reader touches one.  A delta splice swaps a
pending prefix's solution and drops a materialised prefix's rows.

Pinned here:

* materialised rows equal the eager install (``tests/solver_oracle
  .eager_warm_start``) in value and per-prefix insertion order, on
  drawn graphs and on a fuzz campaign seeded from ``REPRO_DELTA_SEEDS``
  (as in ``tests/test_bgp_delta.py``);
* every out-of-band reader — state capture, the diversity study's
  candidate scan, a set-scoped FIB refresh, a session reset — sees what
  it sees on an eager engine;
* two engines warm-started from one ``SolverResult`` own their rows:
  event-path mutation in one reaches neither the other nor the
  solution;
* capture, splice, capture mid-ladder equals a cold solve, rows and
  Adj-RIB-In included;
* the fuzz executor's injected divergence survives materialisation;
* ``warm_start`` refuses an engine that is not fresh;
* rows on demand, over the campaign: an event-path origination or
  withdrawal writes its own prefix's rows alone, a capture of a partly
  pending engine writes nothing and equals its capture after
  ``materialize()``, and ``derive_rows``' wire half is
  ``derive_wire``.
"""

import os

import pytest
from hypothesis import given, settings

from repro.bgp.delta import DeltaChange, apply_delta
from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.origin import OriginController
from repro.bgp.solver import (
    Origination,
    derive_rows,
    derive_wire,
    solve,
    solver_unsupported_reason,
)
from repro.dataplane.fib import build_fibs
from repro.errors import SimulationError
from repro.experiments.diversity import _forward_last_link_avoidable
from repro.fuzz import executor
from repro.fuzz.diff import canonical_blob, capture_state
from repro.fuzz.executor import VERDICT_DIVERGENCE, run_case
from repro.fuzz.gen import generate_case
from repro.net.addr import Prefix
from repro.runner.baseline import (
    MODE_SOLVER,
    ORIGIN_ASN_EVEN,
    converged_internet,
)
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship
from tests.solver_oracle import eager_warm_start
from tests.state_oracle import oracle_rows
from tests.test_bgp_solver_oracle import graphs_and_originations

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_DELTA_SEEDS", "0,1,2").split(",")
    if s.strip()
)
#: Cases per scale in the campaign sweep.
SWEEP_CASES = 60


def _rows(engine):
    """Every Adj-RIB-In row and standing announcement, in the order the
    engine holds them: ``{(asn, prefix): [(sender, route), ...]}`` and
    ``{(src, dst, prefix): announcement}``."""
    adj_in = {
        (asn, prefix): list(rows.items())
        for asn, speaker in engine.speakers.items()
        for prefix, rows in speaker.table._adj_in.items()
    }
    wire = {
        (src, dst, prefix): announcement
        for (src, dst), session in engine._session_map.items()
        for prefix, announcement in session.sent.items()
    }
    return adj_in, wire


def _loc_ribs(engine):
    return {
        asn: speaker.table.loc_rib()
        for asn, speaker in engine.speakers.items()
    }


def _lazy_and_eager(graph, originations, configs=None, seed=0):
    """(lazy, eager, result): one engine warm-started, one eagerly
    installed by the oracle, from the same originations."""
    lazy = BGPEngine(graph, EngineConfig(seed=seed), configs)
    result = solve(lazy, originations)
    lazy.warm_start(result)
    eager = BGPEngine(graph, EngineConfig(seed=seed), configs)
    eager_warm_start(eager, originations)
    return lazy, eager, result


def _assert_materialises_to_eager(lazy, eager, result):
    assert lazy._rows_pending
    assert _loc_ribs(lazy) == _loc_ribs(eager)
    before = _loc_ribs(lazy)
    lazy.materialize()
    assert not lazy._rows_pending
    assert _rows(lazy) == _rows(eager)
    assert _loc_ribs(lazy) == before  # materialising pins nothing
    for asn, speaker in lazy.speakers.items():
        for prefix, best in speaker.table.best_routes():
            # A selection and its row are one object, as eagerly.
            assert speaker.table.route_from(prefix, best.neighbor) is best
    for solution in result.solutions:
        adj_in, _sent = derive_rows(solution)
        assert adj_in.keys() == solution.best.keys()


class TestMatchesEagerInstall:
    @settings(max_examples=150, deadline=None)
    @given(graphs_and_originations())
    def test_drawn_graphs(self, drawn):
        asns, links, originations = drawn
        graph = ASGraph()
        for asn in asns:
            graph.add_as(asn)
        for a, b, role in links:
            graph.add_link(a, b, role)
        # One prefix per origination: the drawn ones share a prefix.
        distinct = [
            Origination.make(
                org.asn, Prefix(f"10.{index}.0.0/16"), path=org.path,
                per_neighbor=org.per_neighbor_dict(), med=org.med,
            )
            for index, org in enumerate(originations)
        ]
        _assert_materialises_to_eager(*_lazy_and_eager(graph, distinct))

    @pytest.mark.parametrize("scale", ("tiny", "small", "medium"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_campaign(self, seed, scale):
        checked = 0
        for index in range(SWEEP_CASES):
            case = generate_case(seed, index, scale)
            graph = case.build_graph()
            originations = case.resolved_originations()
            probe = BGPEngine(graph, EngineConfig(), case.speaker_configs())
            if solver_unsupported_reason(probe, originations) is not None:
                continue
            _assert_materialises_to_eager(*_lazy_and_eager(
                graph, originations, case.speaker_configs(),
                case.engine_seed,
            ))
            checked += 1
        assert checked > SWEEP_CASES // 3


class TestOutOfBandReaders:
    @staticmethod
    def _pair(scale="small", seed=2):
        base = converged_internet(scale, seed, mode=MODE_SOLVER)
        originations = [
            solution.origination
            for solution in base.engine._analytic.values()
        ]
        return _lazy_and_eager(base.graph, originations, seed=seed)

    def test_state_capture(self):
        lazy, eager, _ = self._pair()
        prefixes = list(lazy._analytic)[:3]
        assert capture_state(lazy, prefixes) == capture_state(
            eager, prefixes
        )
        assert capture_state(lazy) == capture_state(eager)
        assert oracle_rows(lazy) == oracle_rows(eager)

    def test_diversity_candidates(self):
        lazy, eager, _ = self._pair("tiny", 1)
        asns = sorted(lazy.speakers)
        for origin in asns:
            for feed in asns:
                if feed == origin:
                    continue
                assert _forward_last_link_avoidable(
                    lazy, origin, feed
                ) == _forward_last_link_avoidable(eager, origin, feed)
        assert not lazy._rows_pending

    def test_set_scoped_fib_refresh_reads_no_row(self):
        lazy, eager, _ = self._pair()
        previous = build_fibs(lazy)
        everyone = set(lazy.speakers)
        patched = build_fibs(lazy, previous, everyone)
        assert lazy._rows_pending  # Loc-RIB keys: nothing materialised
        expected = build_fibs(eager, build_fibs(eager), everyone)
        assert patched.tables == expected.tables
        assert patched.origins == expected.origins

    def test_session_reset_unfolds_as_on_an_eager_engine(self):
        lazy, eager, _ = self._pair()
        a = min(lazy.speakers)
        b = min(lazy.speakers[a].neighbors)
        recorded = {}
        for engine in (lazy, eager):
            recorded[engine] = []
            engine.on_change.append(recorded[engine].append)
            engine.reset_session(a, b)
            engine.run()
        assert lazy._analytic is None and not lazy._rows_pending
        assert recorded[lazy] == recorded[eager]
        assert lazy.changes == eager.changes
        assert lazy.updates_sent == eager.updates_sent
        assert _rows(lazy) == _rows(eager)


class TestSharedResult:
    def test_event_path_in_one_engine_reaches_no_other(self):
        base = converged_internet(
            "small", 4, mode=MODE_SOLVER, origin_providers=2,
            origin_asn_policy=ORIGIN_ASN_EVEN,
        )
        originations = [
            solution.origination
            for solution in base.engine._analytic.values()
        ]
        graph = base.graph
        first = BGPEngine(graph, EngineConfig(seed=4))
        result = solve(first, originations)
        second = BGPEngine(graph, EngineConfig(seed=4))
        first.warm_start(result)
        second.warm_start(result)
        second.materialize()
        derived = [derive_rows(s) for s in result.solutions]
        bests = [dict(s.best) for s in result.solutions]
        held = _rows(second)

        # A poison through the event path: materialises, then decides
        # and flushes against the rows in place.
        org = originations[0]
        victim = next(iter(first.speakers[org.asn].neighbors))
        first.originate(org.asn, org.prefix, path=(org.asn, victim, org.asn))
        first.run()
        first.reset_session(org.asn, victim)
        first.run()

        assert _rows(second) == held
        assert [derive_rows(s) for s in result.solutions] == derived
        assert [dict(s.best) for s in result.solutions] == bests
        third = BGPEngine(graph, EngineConfig(seed=4))
        third.warm_start(result)
        third.materialize()
        assert _rows(third) == held
        for asn, speaker in first.speakers.items():
            for prefix, rows in speaker.table._adj_in.items():
                other = second.speakers[asn].table._adj_in.get(prefix)
                assert rows is not other


class TestSpliceMidLadder:
    @staticmethod
    def _ladder(controller, graph, origin):
        providers = sorted(graph.providers(origin))
        transit = sorted(
            set(graph.transit_ases()) - set(providers) - {origin}
        )
        yield controller.announce_baseline
        for target, extra in zip(providers + transit[:2], transit[2:]):
            yield lambda t=target: controller.poison([t], key="r")
            yield lambda t=target, e=extra: controller.poison(
                [t, e], key="r"
            )
            yield lambda: controller.steer_prepend(
                [controller.providers[0]], key="r"
            )
            yield lambda: controller.unpoison("r")

    @pytest.mark.parametrize("capture_every", (1, 2, 3))
    def test_equals_a_cold_solve(self, capture_every):
        base = converged_internet(
            "small", 1, mode=MODE_SOLVER, origin_providers=2,
            origin_asn_policy=ORIGIN_ASN_EVEN,
        )
        engine, graph, origin = base.engine, base.graph, base.origin_asn
        prefix = graph.node(origin).prefixes[0]
        controller = OriginController(
            engine, origin, prefix, delta_mode="auto"
        )
        steps = 0
        for step, announce in enumerate(
            self._ladder(controller, graph, origin)
        ):
            engine.advance_to(engine.now + 600.0)
            announce()
            engine.run()
            steps += 1
            if step % capture_every:
                continue
            spliced = capture_state(engine)
            cold = BGPEngine(graph, EngineConfig(seed=1))
            cold.warm_start(solve(cold, [
                solution.origination
                for solution in engine._analytic.values()
            ]))
            assert spliced == capture_state(cold), step
            assert {
                key: dict(rows) for key, rows in _rows(engine)[0].items()
            } == {
                key: dict(rows) for key, rows in _rows(cold)[0].items()
            }, step
        assert controller.delta_fallbacks == 0
        assert controller.delta_applied == steps

    def test_withdrawal_of_a_materialised_prefix_drops_its_rows(self):
        base = converged_internet("tiny", 3, mode=MODE_SOLVER)
        engine = base.engine
        prefix, solution = next(iter(engine._analytic.items()))
        engine.materialize()
        apply_delta(
            engine, [DeltaChange.withdraw(solution.origination.asn, prefix)]
        )
        adj_in, wire = _rows(engine)
        assert not any(key[-1] == prefix for key in adj_in)
        assert not any(key[-1] == prefix for key in wire)
        assert all(
            speaker.best(prefix) is None
            for speaker in engine.speakers.values()
        )


class TestInjectedDivergence:
    def test_tamper_survives_materialisation(self):
        case = generate_case(0, 3, "small")
        engine = BGPEngine(
            case.build_graph(), EngineConfig(seed=case.engine_seed)
        )
        result = solve(engine, case.resolved_originations())
        engine.warm_start(result)
        executor._tamper(engine, result)
        solved = next(s for s in result.solutions if s.best)
        victim = max(solved.best)
        engine.materialize()
        assert engine.speakers[victim].best(solved.prefix) is None

    def test_divergence_still_surfaces(self):
        result = run_case(
            generate_case(0, 3, "small"), inject_divergence=True
        )
        assert result.verdict == VERDICT_DIVERGENCE


class TestWarmStartNeedsAFreshEngine:
    @staticmethod
    def _setup():
        base = converged_internet("tiny", 5, mode=MODE_SOLVER)
        originations = [
            solution.origination
            for solution in base.engine._analytic.values()
        ]
        engine = BGPEngine(base.graph, EngineConfig(seed=5))
        return engine, solve(engine, originations), originations

    def test_second_warm_start(self):
        engine, result, _ = self._setup()
        engine.warm_start(result)
        with pytest.raises(SimulationError, match="fresh engine"):
            engine.warm_start(result)

    def test_after_event_activity(self):
        engine, result, originations = self._setup()
        org = originations[0]
        engine.originate(org.asn, org.prefix)
        engine.run()
        with pytest.raises(SimulationError, match="fresh engine"):
            engine.warm_start(result)

    @pytest.mark.parametrize(
        "residue", ("origin", "change_log", "updates", "analytic")
    )
    def test_each_residue_alone(self, residue):
        engine, result, originations = self._setup()
        org = originations[0]
        if residue == "origin":
            engine.speakers[org.asn].originate(org.prefix)
        elif residue == "change_log":
            engine._log_change(org.asn, org.prefix, None, None)
        elif residue == "updates":
            session = next(iter(engine.speakers[org.asn].sessions.values()))
            session.updates = 1
        else:
            engine._analytic = {}
        with pytest.raises(SimulationError, match="fresh engine"):
            engine.warm_start(result)

    def test_sessionless_origin_and_withdrawal_is_prior_activity(self):
        """An AS with no sessions announces a prefix and withdraws it:
        no update goes out, no origin stays and no event waits, so the
        Loc-RIB change counter is the only witness, and it suffices."""
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(asn)
        graph.add_link(1, 2, Relationship.PROVIDER)
        originations = [Origination.make(1, Prefix("10.1.0.0/16"))]
        result = solve(BGPEngine(graph), originations)
        engine = BGPEngine(graph)
        engine.originate(3, Prefix("10.3.0.0/16"))
        engine.withdraw_origin(3, Prefix("10.3.0.0/16"))
        engine.run()
        assert engine.updates_sent == {} and not engine._queue
        assert not any(s._origins for s in engine.speakers.values())
        assert engine.changes == 2
        refusal = solver_unsupported_reason(engine, originations)
        assert refusal is not None and refusal.slug == "prior_activity"
        with pytest.raises(SimulationError, match="fresh engine"):
            engine.warm_start(result)


def _admitted(seed, scale, count=SWEEP_CASES):
    """(case, graph, SolverResult) for each of the first *count* cases
    of campaign *seed* at *scale* that the solver gate admits."""
    for index in range(count):
        case = generate_case(seed, index, scale)
        graph = case.build_graph()
        originations = case.resolved_originations()
        probe = BGPEngine(graph, EngineConfig(), case.speaker_configs())
        if solver_unsupported_reason(probe, originations) is not None:
            continue
        yield case, graph, solve(probe, originations)


def _only(rows, prefix):
    """The part of one ``_rows`` section held for *prefix*."""
    return {key: value for key, value in rows.items() if key[-1] == prefix}


class TestRowsOnDemand:
    @pytest.mark.parametrize("op", ("reannounce", "withdraw"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_event_path_writes_only_its_prefix(self, seed, op):
        checked = 0
        for case, graph, result in _admitted(seed, "small"):
            configs = case.speaker_configs()
            config = EngineConfig(seed=case.engine_seed)
            lazy = BGPEngine(graph, config, configs)
            lazy.warm_start(result)
            eager = BGPEngine(graph, config, configs)
            eager_warm_start(eager, result.originations)
            org = result.originations[checked % len(result.originations)]
            for engine in (lazy, eager):
                if op == "reannounce":
                    engine.originate(
                        org.asn, org.prefix, path=org.path,
                        per_neighbor=org.per_neighbor_dict(), med=org.med,
                    )
                else:
                    engine.withdraw_origin(org.asn, org.prefix)
                engine.run()
            assert list(lazy._rows_pending) == [
                s.prefix for s in result.solutions if s.prefix != org.prefix
            ]
            lazy_adj_in, lazy_wire = _rows(lazy)
            eager_adj_in, eager_wire = _rows(eager)
            assert _only(lazy_adj_in, org.prefix) == _only(
                eager_adj_in, org.prefix
            )
            # Any other prefix holds its origin's self-route alone.
            assert all(
                [sender for sender, _route in rows] == [asn]
                for (asn, prefix), rows in lazy_adj_in.items()
                if prefix != org.prefix
            )
            assert lazy_wire == _only(eager_wire, org.prefix)
            assert _loc_ribs(lazy) == _loc_ribs(eager)
            lazy.materialize()
            assert _rows(lazy) == (eager_adj_in, eager_wire)
            checked += 1
        assert checked > SWEEP_CASES // 3

    @pytest.mark.parametrize("seed", SEEDS)
    def test_capture_of_a_partly_pending_engine(self, seed):
        partly = 0
        for case, graph, result in _admitted(seed, "medium"):
            engine = BGPEngine(
                graph, EngineConfig(seed=case.engine_seed),
                case.speaker_configs(),
            )
            engine.warm_start(result)
            executor._perturb(engine, case)
            pending = list(engine._rows_pending)
            if pending and len(pending) < len(result.solutions):
                partly += 1
            held = _rows(engine)
            some = pending[:2] + [o.prefix for o in result.originations[:2]]
            lazy_all = capture_state(engine)
            lazy_some = capture_state(engine, some)
            assert list(engine._rows_pending) == pending  # wrote nothing
            assert _rows(engine) == held
            engine.materialize()
            written_all = capture_state(engine)
            assert lazy_all.locrib == written_all.locrib
            assert lazy_all.wire == written_all.wire
            assert canonical_blob(lazy_all) == canonical_blob(written_all)
            assert lazy_some == capture_state(engine, some)
        assert partly > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derive_rows_wire_half_is_derive_wire(self, seed):
        solutions = 0
        for _case, _graph, result in _admitted(seed, "medium"):
            for solution in result.solutions:
                _adj_in, sent = derive_rows(solution)
                wire = derive_wire(solution)
                assert sent == wire
                assert [list(row.items()) for row in sent.values()] == [
                    list(row.items()) for row in wire.values()
                ]
                assert list(sent) == list(wire)
                solutions += 1
        assert solutions > SWEEP_CASES
