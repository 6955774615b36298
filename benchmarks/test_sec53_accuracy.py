"""§5.3 — isolation accuracy.

Paper: LIFEGUARD's verdicts were consistent with traceroutes from both
ends for 169 of 182 unidirectional failures (93%); for 40% of 320
poisoning-candidate outages the system identified a different failure
location than traceroute alone would have suggested.
"""

from collections import Counter

from repro.analysis.reporting import Table


def test_sec53_isolation_accuracy(benchmark, accuracy_study, results_dir):
    study, _scenario = accuracy_study

    def metrics():
        return (
            study.accuracy,
            study.consistency,
            study.traceroute_difference_fraction,
        )

    accuracy, consistency, differs = benchmark(metrics)

    mix = Counter(c.true_direction.value for c in study.cases)
    table = Table(
        "Sec 5.3: failure isolation accuracy",
        ["metric", "measured", "paper"],
    )
    table.add_row("blamed the injected AS (ground truth)", accuracy,
                  "n/a (no ground truth in the wild)")
    table.add_row("consistent with both-end traceroutes", consistency,
                  "93% (169/182)")
    table.add_row("verdict differs from traceroute-only", differs, "40%")
    table.add_note(
        f"{len(study.cases)} injected failures "
        f"({dict(sorted(mix.items()))}), 5% probe-reply loss"
    )
    table.emit(results_dir, "sec53_accuracy.txt")

    assert accuracy >= 0.85
    assert consistency >= 0.85
    assert 0.25 <= differs <= 0.65


def test_sec53_reverse_failures_fool_traceroute(benchmark, accuracy_study,
                                                results_dir):
    """Every reverse-path case is a Fig.-4 situation: the failing
    traceroute terminates somewhere on the (working) forward path."""
    study, _scenario = accuracy_study
    from repro.isolation.direction import FailureDirection

    def reverse_differs():
        reverse = [
            c
            for c in study.cases
            if c.true_direction is FailureDirection.REVERSE
            and c.result is not None
        ]
        if not reverse:
            return 0.0, 0
        return (
            sum(c.traceroute_differs for c in reverse) / len(reverse),
            len(reverse),
        )

    fraction, count = benchmark(reverse_differs)
    table = Table(
        "Sec 5.3: traceroute misdiagnosis on reverse failures",
        ["metric", "measured", "paper"],
    )
    table.add_row(
        "reverse-path cases where traceroute points elsewhere",
        f"{fraction:.1%} (n={count})",
        "the Fig. 4 case: 'gave incorrect information'",
    )
    table.emit(results_dir, "sec53_reverse_traceroute.txt")
    assert fraction >= 0.80
