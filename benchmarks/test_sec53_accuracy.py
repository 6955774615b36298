"""§5.3 — isolation accuracy.

Paper: LIFEGUARD's verdicts were consistent with traceroutes from both
ends for 169 of 182 unidirectional failures (93%); for 40% of 320
poisoning-candidate outages the system identified a different failure
location than traceroute alone would have suggested.
"""

from repro.experiments.tables import (
    reverse_traceroute_misdiagnosis,
    study,
)


def test_sec53_isolation_accuracy(write):
    write("sec53_accuracy")
    accuracy, _scenario = study("accuracy")

    assert accuracy.accuracy >= 0.85
    assert accuracy.consistency >= 0.85
    assert 0.25 <= accuracy.traceroute_difference_fraction <= 0.65


def test_sec53_reverse_failures_fool_traceroute(write):
    """Every reverse-path case is a Fig.-4 situation: the failing
    traceroute terminates somewhere on the (working) forward path."""
    write("sec53_reverse_traceroute")
    fraction, _count = reverse_traceroute_misdiagnosis(study("accuracy")[0])
    assert fraction >= 0.80
