"""The differential fuzzer: generator, executor, shrinker, campaign."""

import json
import os

import pytest

from repro.cli import main
from repro.fuzz import (
    ActionSpec,
    FuzzCase,
    OrigSpec,
    VERDICT_DIVERGENCE,
    VERDICT_EQUAL,
    VERDICT_GATE_REJECTED,
    generate_case,
    run_campaign,
    run_case,
    shrink_case,
    single_reductions,
)
from repro.bgp.solver import Refusal
from repro.runner.baseline import converged_internet
from repro.runner.stats import RunStats
from tests.corpus_replay import load_entries, replay_entry


class TestGenerator:
    def test_same_seed_same_case(self):
        a = generate_case(0, 5, "small")
        b = generate_case(0, 5, "small")
        assert a.digest() == b.digest()

    def test_different_index_different_case(self):
        digests = {generate_case(0, i, "small").digest() for i in range(8)}
        assert len(digests) == 8

    def test_json_round_trip(self):
        for index in range(20):
            case = generate_case(3, index, "small")
            again = FuzzCase.from_json(
                json.loads(json.dumps(case.to_json()))
            )
            assert again.canonical() == case.canonical()

    def test_unknown_scale_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            generate_case(0, 0, "galactic")


class TestExecutor:
    def test_small_campaign_is_clean(self):
        report = run_campaign(
            seed=0, cases=40, scale="tiny", workers=1, shrink=False
        )
        assert report.ok
        assert report.equal + report.gate_rejected == 40
        assert report.equal > 0, "campaign must exercise the solver"
        assert report.gate_rejected > 0, (
            "campaign must exercise the gate budget"
        )

    def test_moas_is_gate_rejected(self):
        case = FuzzCase(
            seed=7,
            engine_seed=7,
            ases=[(1, 1), (2, 2), (3, 2)],
            links=[(2, 1, "provider"), (3, 1, "provider")],
            originations=[
                OrigSpec(2, "10.0.0.0/16"),
                OrigSpec(3, "10.0.0.0/16"),
            ],
        )
        result = run_case(case)
        assert result.verdict == VERDICT_GATE_REJECTED
        assert "multiple originations" in result.reason

    def test_med_survives_both_backends(self):
        case = FuzzCase(
            seed=11,
            engine_seed=11,
            ases=[(1, 1), (2, 2)],
            links=[(2, 1, "provider")],
            originations=[OrigSpec(2, "10.2.0.0/16", med=5)],
            actions=[
                ActionSpec(
                    op="announce", asn=2, prefix="10.2.0.0/16", med=7
                )
            ],
        )
        result = run_case(case)
        assert result.verdict == VERDICT_EQUAL, result.diff

    def test_injected_divergence_is_caught(self):
        # Index 1: a case whose perturbation script does not re-announce
        # the tampered prefix (an announce action would heal the
        # injected corruption and mask the divergence).
        case = generate_case(0, 1, "tiny")
        healthy = run_case(case)
        assert healthy.verdict == VERDICT_EQUAL
        broken = run_case(case, inject_divergence=True)
        assert broken.verdict == VERDICT_DIVERGENCE
        assert broken.diff


class TestDeltaArm:
    """The third differential arm: delta splice vs full event replay."""

    @staticmethod
    def _case(**overrides):
        kwargs = dict(
            seed=21,
            engine_seed=21,
            ases=[(1, 1), (2, 1), (3, 2), (4, 3)],
            links=[
                (1, 2, "peer"),
                (3, 1, "provider"),
                (3, 2, "provider"),
                (4, 3, "provider"),
            ],
            originations=[
                OrigSpec(1, "10.1.0.0/16"),
                OrigSpec(4, "10.4.0.0/16", path=(4, 4, 4)),
            ],
            actions=[
                ActionSpec(
                    op="announce",
                    asn=4,
                    prefix="10.4.0.0/16",
                    path=(4, 3, 4),
                ),
                ActionSpec(op="reset", asn=4, peer=3),
            ],
        )
        kwargs.update(overrides)
        return FuzzCase(**kwargs)

    def test_clean_case_runs_the_arm(self):
        stats = RunStats()
        result = run_case(self._case(), stats=stats)
        assert result.verdict == VERDICT_EQUAL
        assert result.delta_arm == "equal"
        assert stats.counters["fuzz.delta_arm_runs"] == 1
        assert stats.counters["solver.delta.applied"] == 2

    def test_fault_plan_keeps_the_arm_off(self):
        stats = RunStats()
        result = run_case(self._case(drop_rate=0.2), stats=stats)
        assert result.delta_arm is None
        assert "fuzz.delta_arm_runs" not in stats.counters

    def test_no_actions_keeps_the_arm_off(self):
        result = run_case(self._case(actions=[]))
        assert result.verdict == VERDICT_EQUAL
        assert result.delta_arm is None

    def test_unsupported_action_is_a_counted_skip(self):
        # A second AS announcing AS4's prefix is MOAS mid-script: the
        # event engine models it, the delta gate must refuse and the
        # arm records the skip instead of failing the case.
        stats = RunStats()
        case = self._case(
            actions=[
                ActionSpec(
                    op="announce", asn=1, prefix="10.4.0.0/16"
                )
            ]
        )
        result = run_case(case, stats=stats)
        assert result.verdict == VERDICT_EQUAL
        assert result.delta_arm.startswith("skipped:")
        assert "multiple originations" in result.delta_arm
        assert stats.counters["fuzz.delta_arm_skips"] == 1

    def test_delta_divergence_is_attributed(self, monkeypatch):
        import repro.fuzz.executor as executor

        real = executor.apply_delta

        def corrupting(engine, changes, stats=None):
            out = real(engine, changes, stats=stats)
            for speaker in engine.speakers.values():
                loc = speaker.table._loc
                if loc:
                    loc.pop(next(iter(loc)))
                    break
            return out

        monkeypatch.setattr(executor, "apply_delta", corrupting)
        result = run_case(self._case())
        assert result.verdict == VERDICT_DIVERGENCE
        assert result.crash_side == "delta"
        assert result.delta_arm == "divergence"
        assert result.diff

    def test_delta_crash_is_attributed(self, monkeypatch):
        import repro.fuzz.executor as executor

        def boom(engine, changes, stats=None):
            raise RuntimeError("splice exploded")

        monkeypatch.setattr(executor, "apply_delta", boom)
        result = run_case(self._case())
        assert result.verdict == "crash"
        assert result.crash_side == "delta"
        assert "splice exploded" in result.reason

    @pytest.mark.parametrize("inject", (False, True))
    def test_one_solve_per_case_shared_with_the_arm(
        self, monkeypatch, inject
    ):
        """The delta arm warm-starts from the solver arm's own result:
        ``solve`` runs once per non-rejected case, and what the arm is
        handed still equals a fresh solve after the solver arm perturbed
        the engine it was installed in — also when that engine carried
        the injected corruption (a perturbation can heal it, and the
        healed case goes on to the arm)."""
        import repro.fuzz.executor as executor
        from repro.bgp.engine import BGPEngine, EngineConfig
        from repro.bgp.solver import solve

        solves, shared = [], []
        real_solve, real_arm = executor.solve, executor._delta_arm

        def counting_solve(engine, originations, stats=None):
            solves.append(1)
            return real_solve(engine, originations, stats=stats)

        def recording_arm(case, graph, solution, *args, **kwargs):
            fresh = solve(
                BGPEngine(
                    graph,
                    EngineConfig(seed=case.engine_seed),
                    case.speaker_configs(),
                ),
                case.resolved_originations(),
            )
            shared.append(
                (solution.originations, solution.solutions)
                == (fresh.originations, fresh.solutions)
            )
            return real_arm(case, graph, solution, *args, **kwargs)

        monkeypatch.setattr(executor, "solve", counting_solve)
        monkeypatch.setattr(executor, "_delta_arm", recording_arm)
        verdicts = []
        for index in range(40):
            del solves[:]
            result = run_case(
                generate_case(0, index, "small"), inject_divergence=inject
            )
            rejected = result.verdict == VERDICT_GATE_REJECTED
            assert len(solves) == (0 if rejected else 1), index
            assert result.delta_arm in (None, "equal") or (
                result.delta_arm.startswith("skipped:")
            ), index
            verdicts.append(result.verdict)
        assert shared and all(shared)
        if inject:
            assert verdicts.count(VERDICT_DIVERGENCE) >= 10
        else:
            assert len(shared) >= 10 and VERDICT_DIVERGENCE not in verdicts


class TestShrinker:
    @staticmethod
    def _failing_case():
        case = generate_case(0, 1, "small")
        result = run_case(case, inject_divergence=True)
        assert result.failed
        return case, result.signature()

    def test_shrink_is_deterministic(self):
        case, signature = self._failing_case()

        def still_fails(candidate):
            result = run_case(candidate, inject_divergence=True)
            return result.failed and result.signature() == signature

        first, _ = shrink_case(case, still_fails, budget=2000)
        second, _ = shrink_case(case, still_fails, budget=2000)
        assert first.digest() == second.digest()

    def test_shrunk_case_is_one_minimal(self):
        case, signature = self._failing_case()

        def still_fails(candidate):
            result = run_case(candidate, inject_divergence=True)
            return result.failed and result.signature() == signature

        shrunk, _ = shrink_case(case, still_fails, budget=2000)
        assert still_fails(shrunk)
        for label, candidate in single_reductions(shrunk):
            assert not still_fails(candidate), (
                f"reduction {label!r} still fails: not 1-minimal"
            )


class TestCampaign:
    def test_worker_count_invariance(self):
        serial = run_campaign(
            seed=4, cases=24, scale="tiny", workers=1, shrink=False
        )
        pooled = run_campaign(
            seed=4, cases=24, scale="tiny", workers=2, shrink=False
        )
        assert serial.as_dict() == pooled.as_dict()

    def test_inject_end_to_end(self, tmp_path):
        corpus = tmp_path / "corpus"
        stats = RunStats()
        report = run_campaign(
            seed=0,
            cases=2,
            scale="small",
            workers=1,
            shrink=True,
            corpus_dir=str(corpus),
            inject_divergence=True,
            stats=stats,
        )
        assert not report.ok
        assert report.divergences == 2
        assert stats.counters["fuzz.divergence"] == 2
        assert stats.counters["fuzz.shrink_runs"] > 0
        for failure in report.failures:
            assert len(failure.shrunk.ases) <= 8
            assert failure.corpus_path is not None
            assert os.path.exists(failure.corpus_path)
        entries = load_entries(str(corpus))
        assert len(entries) == 2
        # The injected corruption is gone on a plain replay, so the
        # written expect="equal" pins pass against the healthy tree.
        for _path, entry in entries:
            ok, detail = replay_entry(entry)
            assert ok, detail

    def test_gate_budget_counters(self):
        stats = RunStats()
        report = run_campaign(
            seed=0, cases=40, scale="tiny", workers=1, shrink=False,
            stats=stats,
        )
        assert report.gate_reasons
        for slug, count in report.gate_reasons.items():
            assert stats.counters[f"fuzz.gate_rejections.{slug}"] == count

    @pytest.mark.parametrize("workers", (1, 2))
    def test_verification_cost_is_reported(self, workers):
        """Every case ships its own timers back, at any worker count,
        and the campaign says what share of them the oracle was."""
        stats = RunStats()
        report = run_campaign(
            seed=0, cases=12, scale="tiny", workers=workers, shrink=False,
            stats=stats,
        )
        timers, counters = stats.timers, stats.counters
        assert timers["fuzz.run_case"] > timers["fuzz.capture"] > 0
        assert timers["fuzz.compare"] > 0
        # Two captures per solved case, a third when the delta arm ran:
        # the same rows every time, so the count is exact.
        assert counters["fuzz.capture_rows"] == 1131
        assert counters["solver.prefixes_solved"] > 0
        share = stats.registry.snapshot()["gauges"]["fuzz.verify_share"]
        assert 0 < share < 1
        assert share == pytest.approx(
            (timers["fuzz.capture"] + timers["fuzz.compare"])
            / timers["fuzz.run_case"]
        )
        assert report.ok


class TestBaselineGateCounter:
    def test_auto_fallback_counts_reason_slug(self, monkeypatch):
        monkeypatch.setattr(
            "repro.runner.baseline.solver_unsupported_reason",
            lambda engine, originations: Refusal(
                "sibling_link", "AS1: sibling link"
            ),
        )
        stats = RunStats()
        converged_internet("tiny", 2, mode="auto", stats=stats)
        assert stats.counters["solver.fallbacks"] == 1
        assert stats.counters["solver.fallbacks.sibling_link"] == 1


class TestFuzzCLI:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["fuzz", "--cases", "10", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Differential fuzz" in out

    def test_divergence_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--cases",
                "2",
                "--scale",
                "tiny",
                "--inject-divergence",
                "--corpus-dir",
                str(tmp_path / "corpus"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL case 1" in captured.err
        assert list((tmp_path / "corpus").glob("fuzz-*.json"))
