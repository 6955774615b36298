"""Tests for the deterministic parallel trial runner.

The load-bearing property is byte-identity: any worker count must
produce exactly the results of a serial run, for the runner primitives
themselves and for every experiment driver built on them.
"""

import pickle

from repro.experiments.accuracy import run_isolation_accuracy_study
from repro.experiments.alternate_paths import run_alternate_path_study
from repro.experiments.convergence import run_poisoning_convergence_study
from repro.experiments.defenses import run_defense_study
from repro.experiments.diversity import run_provider_diversity_study
from repro.experiments.efficacy import run_topology_efficacy_study
from repro.experiments.robustness import run_robustness_study
from repro.runner import RunStats, derive_seed, run_trials


def _square(context, unit):
    return context + unit * unit


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "trial", 3) == derive_seed(7, "trial", 3)

    def test_sensitive_to_every_component(self):
        base = derive_seed(7, "trial", 3)
        assert derive_seed(8, "trial", 3) != base
        assert derive_seed(7, "other", 3) != base
        assert derive_seed(7, "trial", 4) != base

    def test_fits_in_63_bits(self):
        for trial in range(50):
            assert 0 <= derive_seed(0, trial) < (1 << 63)


class TestRunTrials:
    def test_results_in_unit_order(self):
        units = list(range(23))
        serial = run_trials(_square, units, context=100, workers=1)
        parallel = run_trials(_square, units, context=100, workers=4)
        assert serial == [100 + u * u for u in units]
        assert parallel == serial

    def test_stats_record_mode_and_units(self):
        stats = RunStats()
        run_trials(
            _square, [1, 2, 3], context=0, workers=1, stats=stats, label="t"
        )
        assert stats.counters["t.units"] == 3
        assert stats.counters["t.serial_runs"] == 1
        stats = RunStats()
        run_trials(
            _square, [1, 2, 3], context=0, workers=2, stats=stats, label="t"
        )
        assert stats.counters["t.parallel_runs"] == 1
        assert "t.wall" in stats.timers

    def test_empty_units(self):
        assert run_trials(_square, [], context=0, workers=4) == []


class TestDriverParallelIdentity:
    """Each driver must be byte-identical at any worker count."""

    def test_efficacy(self):
        kwargs = dict(scale="tiny", seed=3, num_origins=5, max_cases=40)
        serial, _ = run_topology_efficacy_study(workers=1, **kwargs)
        parallel, _ = run_topology_efficacy_study(workers=4, **kwargs)
        assert serial.outcomes == parallel.outcomes

    def test_convergence(self):
        kwargs = dict(scale="tiny", seed=3, max_poisons=2)
        serial, _ = run_poisoning_convergence_study(workers=1, **kwargs)
        parallel, _ = run_poisoning_convergence_study(workers=4, **kwargs)
        assert pickle.dumps(serial.trials) == pickle.dumps(parallel.trials)

    def test_diversity(self):
        kwargs = dict(scale="tiny", seed=3, num_feeds=10)
        serial, _ = run_provider_diversity_study(workers=1, **kwargs)
        parallel, _ = run_provider_diversity_study(workers=4, **kwargs)
        assert serial.forward_avoidable == parallel.forward_avoidable
        assert serial.reverse_avoidable == parallel.reverse_avoidable

    def test_accuracy(self):
        kwargs = dict(scale="tiny", seed=3, num_cases=4)
        serial, _ = run_isolation_accuracy_study(workers=1, **kwargs)
        parallel, _ = run_isolation_accuracy_study(workers=4, **kwargs)
        assert len(serial.cases) == len(parallel.cases)
        for left, right in zip(serial.cases, parallel.cases):
            assert pickle.dumps(left) == pickle.dumps(right)

    def test_alternate_paths(self):
        kwargs = dict(scale="tiny", seed=3, num_sites=8, num_outages=20)
        serial, _ = run_alternate_path_study(workers=1, **kwargs)
        parallel, _ = run_alternate_path_study(workers=4, **kwargs)
        assert pickle.dumps(serial.cases) == pickle.dumps(parallel.cases)

    def test_robustness(self):
        kwargs = dict(
            scale="tiny", seed=3, intensities=(0.0, 0.2), num_outages=2
        )
        serial = run_robustness_study(workers=1, **kwargs)
        parallel = run_robustness_study(workers=2, **kwargs)
        assert pickle.dumps(serial.points) == pickle.dumps(parallel.points)

    def test_defenses(self):
        kwargs = dict(
            scale="tiny", seed=3, rates=(1.0,), num_outages=2,
            crash_controller=True,
        )
        serial = run_defense_study(workers=1, **kwargs)
        parallel = run_defense_study(workers=2, **kwargs)
        assert pickle.dumps(serial.points) == pickle.dumps(parallel.points)


class TestTrialIndependence:
    """Trial results depend on trial *content*, not batch composition.

    This pins the bugfix for the old drivers' shared-RNG bug: a trial's
    RNG is derived from (master seed, trial identity), so adding or
    removing other trials can't perturb it.
    """

    def test_convergence_trial_independent_of_batch_size(self):
        one, _ = run_poisoning_convergence_study(
            scale="tiny", seed=3, max_poisons=1
        )
        two, _ = run_poisoning_convergence_study(
            scale="tiny", seed=3, max_poisons=2
        )
        first = one.trials[0]
        same = next(
            t
            for t in two.trials
            if t.poisoned_asn == first.poisoned_asn
            and t.prepended_baseline == first.prepended_baseline
        )
        assert pickle.dumps(first) == pickle.dumps(same)

    def test_accuracy_case_independent_of_case_count(self):
        small, _ = run_isolation_accuracy_study(
            scale="tiny", seed=3, num_cases=2
        )
        large, _ = run_isolation_accuracy_study(
            scale="tiny", seed=3, num_cases=4
        )
        for left, right in zip(small.cases, large.cases):
            assert pickle.dumps(left) == pickle.dumps(right)
