"""Tests for building converged baselines: determinism, the knobs that
shape a build, the trial-worker snapshot format, and the drivers'
argument surface now that every run builds its baseline afresh."""

import inspect
import pickle
import zlib

import pytest

from repro.bgp.engine import EngineConfig
from repro.experiments.accuracy import run_isolation_accuracy_study
from repro.experiments.alternate_paths import run_alternate_path_study
from repro.experiments.convergence import run_poisoning_convergence_study
from repro.experiments.defenses import run_defense_study
from repro.experiments.diversity import run_provider_diversity_study
from repro.experiments.efficacy import run_topology_efficacy_study
from repro.experiments.impact import run_impact_study
from repro.experiments.robustness import run_robustness_study
from repro.runner import RunStats, converged_internet
from repro.errors import SimulationError
from repro.runner.baseline import (
    MODE_AUTO,
    MODE_EVENT,
    MODE_SOLVER,
    restore_snapshot,
    unpack_snapshot,
)
from repro.workloads.scenarios import (
    build_chaos_deployment,
    build_deployment,
)

DRIVERS = (
    run_isolation_accuracy_study,
    run_alternate_path_study,
    run_poisoning_convergence_study,
    run_defense_study,
    run_provider_diversity_study,
    run_topology_efficacy_study,
    run_impact_study,
    run_robustness_study,
)


def _engine_bytes(base):
    return pickle.dumps(base.engine)


def _routing(base):
    """Every speaker's Loc-RIB.  Two builds of the same baseline share
    path objects differently (the path intern table warms up on the
    first), so routing state, not pickle bytes, is what must match."""
    return {
        asn: speaker.table.loc_rib()
        for asn, speaker in base.engine.speakers.items()
    }


class TestConvergedBuild:
    def test_rebuild_is_identical(self):
        first = converged_internet("tiny", seed=4)
        second = converged_internet("tiny", seed=4)
        assert _routing(first) == _routing(second)
        assert pickle.dumps(first.graph) == pickle.dumps(second.graph)

    def test_explicit_cache_none_is_the_plain_build(self):
        plain = converged_internet("tiny", seed=4)
        explicit = converged_internet("tiny", seed=4, cache=None)
        assert _routing(plain) == _routing(explicit)
        assert pickle.dumps(plain.graph) == pickle.dumps(explicit.graph)

    def test_seed_changes_the_build(self):
        four = converged_internet("tiny", seed=4)
        five = converged_internet("tiny", seed=5)
        assert pickle.dumps(four.graph) != pickle.dumps(five.graph)
        assert _routing(four) != _routing(five)

    def test_origin_providers_attach_an_origin(self):
        bare = converged_internet("tiny", seed=4)
        homed = converged_internet("tiny", seed=4, origin_providers=2)
        assert bare.origin_asn is None
        assert homed.origin_asn is not None
        assert homed.origin_asn in homed.graph
        assert homed.origin_asn not in bare.graph
        assert len(homed.graph.providers(homed.origin_asn)) == 2

    def test_engine_config_reaches_the_engine(self):
        base = converged_internet(
            "tiny", seed=4, engine_config=EngineConfig(seed=4, mrai=5.0)
        )
        assert base.engine.config.mrai == 5.0
        default = converged_internet("tiny", seed=4)
        assert default.engine.config.mrai != 5.0

    def test_auto_mode_serves_the_solver_flavor(self):
        stats = RunStats()
        solver = converged_internet("tiny", seed=4, mode=MODE_SOLVER)
        event = converged_internet("tiny", seed=4, mode=MODE_EVENT)
        auto = converged_internet("tiny", seed=4, mode="auto", stats=stats)
        assert solver.engine.change_log == []
        assert event.engine.change_log
        assert auto.engine.change_log == []
        assert _routing(auto) == _routing(solver) == _routing(event)
        assert "baseline.convergence" in stats.timers
        assert not any(
            name.startswith("baseline.cache") for name in stats.timers
        )


class TestDeploymentMode:
    """``build_deployment(baseline_mode=)`` is the one way to pick a
    deployment's routing pipeline: the argument alone decides it."""

    @pytest.mark.parametrize(
        "mode, solved",
        [(None, True), (MODE_AUTO, True), (MODE_SOLVER, True),
         (MODE_EVENT, False)],
        ids=["default", "auto", "solver", "event"],
    )
    def test_mode_reaches_the_baseline(self, mode, solved):
        stats = RunStats()
        build_deployment(scale="tiny", seed=4, baseline_mode=mode,
                         stats=stats)
        assert ("solver.prefixes_solved" in stats.counters) == solved
        assert "solver.fallbacks" not in stats.counters

    def test_solver_and_event_deployments_route_alike(self):
        solver = build_deployment(scale="tiny", seed=4,
                                  baseline_mode=MODE_SOLVER)
        event = build_deployment(scale="tiny", seed=4,
                                 baseline_mode=MODE_EVENT)
        assert solver.origin_asn == event.origin_asn
        assert solver.vp_asns == event.vp_asns
        assert solver.targets == event.targets
        assert _routing(solver) == _routing(event)
        prefix = solver.production_prefix
        assert solver.engine.forwarding_next_hops(
            prefix
        ) == event.engine.forwarding_next_hops(prefix)

    def test_an_unknown_mode_is_refused(self):
        with pytest.raises(SimulationError, match="warp"):
            build_deployment(scale="tiny", seed=4, baseline_mode="warp")


class TestSnapshot:
    def test_restore_is_byte_identical_and_independent(self):
        base = converged_internet("tiny", seed=6)
        payload = base.snapshot()
        first, origin_asn = restore_snapshot(payload)
        second, _ = restore_snapshot(payload)
        assert origin_asn == base.origin_asn
        assert pickle.dumps(first) == _engine_bytes(base)
        assert first is not second
        first.advance_to(first.now + 60.0)
        assert pickle.dumps(second) == _engine_bytes(base)

    def test_raw_pickle_is_rejected(self):
        raw = pickle.dumps({"raw": True}, protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(zlib.error):
            unpack_snapshot(raw)


class TestNoCacheArgument:
    @pytest.mark.parametrize(
        "driver", DRIVERS, ids=lambda driver: driver.__name__
    )
    def test_driver_takes_no_cache(self, driver):
        assert "cache" not in inspect.signature(driver).parameters

    def test_chaos_deployment_rejects_a_cache(self, tmp_path):
        with pytest.raises(TypeError):
            build_chaos_deployment(scale="tiny", seed=4, cache=tmp_path)
