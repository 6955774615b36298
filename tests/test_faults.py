"""The fault-injection layer: plans, the injector, and hardened consumers."""

import ast
import pathlib

import pytest

from repro.dataplane.fib import build_fibs
from repro.errors import ControlError, DegradedError, RetryExhausted
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryBudget,
)
from repro.workloads.scenarios import (
    build_chaos_deployment,
    build_deployment,
)


class TestFaultPlan:
    def test_stochastic_rate_validated(self):
        with pytest.raises(ControlError):
            FaultPlan([FaultSpec(FaultKind.PROBE_LOSS, rate=1.5)])
        with pytest.raises(ControlError):
            FaultPlan([FaultSpec(FaultKind.ATLAS_STALE, rate=-0.1)])

    def test_vp_crash_needs_name(self):
        with pytest.raises(ControlError):
            FaultPlan([FaultSpec(FaultKind.VP_CRASH)])

    def test_session_reset_needs_session_and_time(self):
        with pytest.raises(ControlError):
            FaultPlan([FaultSpec(FaultKind.BGP_SESSION_RESET)])
        with pytest.raises(ControlError):
            FaultPlan(
                [FaultSpec(FaultKind.BGP_SESSION_RESET, session=(1, 2))]
            )

    def test_rate_is_max_of_active_windows(self):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.PROBE_LOSS, rate=0.1, start=0, end=100),
                FaultSpec(FaultKind.PROBE_LOSS, rate=0.4, start=50, end=60),
            ]
        )
        assert plan.rate(FaultKind.PROBE_LOSS, 55.0) == 0.4
        assert plan.rate(FaultKind.PROBE_LOSS, 70.0) == 0.1
        assert plan.rate(FaultKind.PROBE_LOSS, 200.0) == 0.0

    def test_standard_intensity_bounds(self):
        with pytest.raises(ControlError):
            FaultPlan.standard(1.2)
        with pytest.raises(ControlError):
            FaultPlan.standard(-0.1)

    def test_standard_zero_intensity_is_empty(self):
        plan = FaultPlan.standard(
            0.0,
            crashes=[("helper0", 100.0, 200.0)],
            resets=[(1, 2, 50.0)],
        )
        assert plan.specs == []
        assert plan.is_null

    def test_standard_nonzero_has_all_kinds(self):
        plan = FaultPlan.standard(
            0.2,
            crashes=[("helper0", 1.0, 2.0)],
            resets=[(1, 2, 3.0)],
        )
        kinds = {spec.kind for spec in plan.specs}
        assert kinds == set(FaultKind)
        assert not plan.is_null


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan.standard(0.5, seed=9)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        decisions_a = [a.probe_fault("r", 0.0) for _ in range(200)]
        decisions_b = [b.probe_fault("r", 0.0) for _ in range(200)]
        assert decisions_a == decisions_b
        assert a.stats == b.stats

    def test_zero_rate_consumes_no_randomness(self):
        plan = FaultPlan(
            [FaultSpec(FaultKind.PROBE_LOSS, rate=0.0)], seed=4
        )
        injector = FaultInjector(plan)
        state = injector._rng.getstate()
        for _ in range(50):
            assert injector.probe_fault("r", 0.0) is None
            assert injector.bgp_message_action(1, 2, None) is None
            assert not injector.sentinel_false_negative(0.0)
        assert injector._rng.getstate() == state
        assert injector.stats.total_events == 0

    def test_crashed_source_loses_probes_without_rng(self):
        injector = FaultInjector(FaultPlan())
        injector._crashed_rids.add("r9")
        state = injector._rng.getstate()
        assert injector.probe_fault("r9", 0.0) == "lost"
        assert injector.receiver_down("r9")
        assert not injector.receiver_down("r1")
        assert injector._rng.getstate() == state


class TestRetryBudget:
    def test_spend_until_exhausted(self):
        budget = RetryBudget(limit=2)
        budget.spend()
        budget.spend()
        assert budget.remaining == 0
        with pytest.raises(RetryExhausted) as excinfo:
            budget.spend("isolation", vp="origin", target="1.2.3.4")
        assert excinfo.value.vp == "origin"
        assert excinfo.value.target == "1.2.3.4"
        assert "isolation" in str(excinfo.value)

    def test_degraded_error_context(self):
        error = DegradedError("cannot isolate", vp="helper1", target="x")
        assert "helper1" in str(error)
        assert error.vp == "helper1"


class TestProberRetries:
    class _Scripted:
        """Injector stub whose probe_fault pops a scripted sequence."""

        def __init__(self, faults):
            self.faults = list(faults)
            self.calls = 0

        def probe_fault(self, rid, now):
            self.calls += 1
            return self.faults.pop(0) if self.faults else None

        def receiver_down(self, rid):
            return False

    def _prober(self, dataplane, injector):
        from repro.dataplane.probes import Prober

        return Prober(dataplane, injector=injector, max_retries=2)

    def test_retry_recovers_transient_fault(self, dataplane):
        topo = dataplane.topo
        rids = sorted(r.rid for r in topo.routers())
        src, dst = rids[0], rids[-1]
        injector = self._Scripted(["lost"])
        prober = self._prober(dataplane, injector)
        result = prober.ping(src, topo.router(dst).address)
        assert result.success
        assert prober.retries_used == 1
        assert prober.probes_lost_to_faults == 1

    def test_retries_bounded_then_lost(self, dataplane):
        topo = dataplane.topo
        rids = sorted(r.rid for r in topo.routers())
        src, dst = rids[0], rids[-1]
        injector = self._Scripted(["lost"] * 10)
        prober = self._prober(dataplane, injector)
        result = prober.ping(src, topo.router(dst).address)
        assert not result.success
        assert prober.retries_used == 2  # max_retries, then give up
        assert prober.probes_lost_to_faults == 3
        assert injector.calls == 3


class TestSessionReset:
    def test_unknown_session_is_noop(self, small_internet):
        _graph, _topo, engine = small_internet
        assert engine.reset_session(999998, 999999) is False

    def test_reset_restores_identical_routing(self):
        scenario = build_deployment(scale="tiny", seed=5)
        engine = scenario.engine
        before = {
            asn: {
                str(p): tuple(route.as_path)
                for p, route in speaker.table.loc_rib().items()
            }
            for asn, speaker in engine.speakers.items()
        }
        as_a = scenario.graph.providers(scenario.origin_asn)[0]
        as_b = sorted(scenario.graph.providers(as_a))[0]
        assert engine.reset_session(as_a, as_b) is True
        engine.run()
        after = {
            asn: {
                str(p): tuple(route.as_path)
                for p, route in speaker.table.loc_rib().items()
            }
            for asn, speaker in engine.speakers.items()
        }
        assert before == after
        assert engine.session_resets == 1
        # Forwarding state rebuilt from the converged RIBs is unchanged.
        assert (
            build_fibs(engine).origin_for(scenario.targets[0])
            == scenario.topo.router_by_address(scenario.targets[0]).asn
        )


class TestScheduledFaults:
    def test_vp_crash_and_restore(self):
        scenario, injector = build_chaos_deployment(
            scale="tiny", seed=0, intensity=0.0
        )
        lifeguard = scenario.lifeguard
        injector.plan.add(
            FaultSpec(
                FaultKind.VP_CRASH, vp="helper0", start=100.0, end=200.0
            )
        )
        result = injector.apply(lifeguard, 150.0)
        assert not scenario.vantage_points.is_up("helper0")
        assert len(lifeguard.vantage_points.live()) < len(
            lifeguard.vantage_points
        )
        assert any("crashed" in event for event in result.events)
        result = injector.apply(lifeguard, 250.0)
        assert scenario.vantage_points.is_up("helper0")
        assert len(lifeguard.vantage_points.live()) == len(
            lifeguard.vantage_points
        )
        assert any("restored" in event for event in result.events)
        assert injector.stats.vp_crashes == 1
        assert injector.stats.vp_restores == 1

    def test_session_reset_fires_once(self):
        scenario, injector = build_chaos_deployment(
            scale="tiny", seed=0, intensity=0.0
        )
        as_a = scenario.graph.providers(scenario.origin_asn)[0]
        as_b = sorted(scenario.graph.providers(as_a))[0]
        injector.plan.add(
            FaultSpec(
                FaultKind.BGP_SESSION_RESET,
                session=(as_a, as_b),
                start=100.0,
                end=100.0,
            )
        )
        first = injector.apply(scenario.lifeguard, 120.0)
        assert first.bgp_changed
        scenario.engine.run()
        second = injector.apply(scenario.lifeguard, 150.0)
        assert not second.bgp_changed
        assert injector.stats.session_resets == 1

    def test_atlas_corruption_keeps_at_least_one_entry(self):
        scenario, injector = build_chaos_deployment(
            scale="tiny", seed=0, intensity=0.0
        )
        lifeguard = scenario.lifeguard
        lifeguard.prime_atlas(now=0.0)
        injector.plan.add(
            FaultSpec(FaultKind.ATLAS_STALE, rate=1.0)
        )
        injector.plan.add(
            FaultSpec(FaultKind.ATLAS_PARTIAL, rate=1.0)
        )
        for tick in range(10):
            injector.apply(lifeguard, 1000.0 * tick)
        for reverse in (True, False):
            for vp_name, destination in lifeguard.atlas.pairs(reverse):
                entries = (
                    lifeguard.atlas._reverse
                    if reverse
                    else lifeguard.atlas._forward
                )[(vp_name, destination)]
                assert len(entries) >= 1
                for entry in entries:
                    # Truncation never cuts below min_hops; entries that
                    # were short to begin with are left alone.
                    if not entry.reached:
                        assert len(entry.hops) >= 2


class TestRNGDiscipline:
    """Every stochastic choice in the package must flow through a seeded
    ``random.Random`` instance.  Calls on the module-level RNG would make
    runs irreproducible (and would couple the injector's draws to the
    simulation's), so the audit walks the whole source tree."""

    def test_no_module_level_random_calls(self):
        src = (
            pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        )
        offenders = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr != "Random"
                ):
                    offenders.append(
                        f"{path.relative_to(src)}:{node.lineno} "
                        f"random.{func.attr}()"
                    )
        assert offenders == []

    def test_random_imports_only_where_instantiated(self):
        """An ``import random`` without a ``random.Random(...)`` call is
        either dead or a smell that module-level draws are coming."""
        src = (
            pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        )
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            tree = ast.parse(text, filename=str(path))
            imports_random = any(
                isinstance(node, ast.Import)
                and any(alias.name == "random" for alias in node.names)
                for node in ast.walk(tree)
            )
            if imports_random:
                assert "random.Random(" in text, (
                    f"{path.relative_to(src)} imports random but never "
                    f"seeds a random.Random instance"
                )


class TestIsolatorDegradation:
    def test_isolate_raises_degraded_when_vp_down(self):
        scenario = build_deployment(scale="tiny", seed=0)
        lifeguard = scenario.lifeguard
        lifeguard.prime_atlas(now=0.0)
        scenario.vantage_points.mark_down("origin")
        with pytest.raises(DegradedError) as excinfo:
            lifeguard.isolator.isolate(
                "origin", scenario.targets[0], 100.0
            )
        assert excinfo.value.vp == "origin"

    def test_dead_helpers_discount_confidence(self):
        scenario = build_deployment(scale="tiny", seed=0)
        lifeguard = scenario.lifeguard
        lifeguard.prime_atlas(now=0.0)
        for vp in scenario.vantage_points:
            if vp.name != "origin":
                scenario.vantage_points.mark_down(vp.name)
        result = lifeguard.isolator.isolate(
            "origin", scenario.targets[0], 100.0
        )
        assert result.confidence < 0.5
        assert any("helper" in note for note in result.notes)
