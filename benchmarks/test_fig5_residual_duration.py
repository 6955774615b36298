"""Fig. 5 — residual outage duration after X minutes.

Paper: the median outage lasted only 90 s, but of the 12% of problems
that persisted at least 5 minutes, 51% lasted at least 5 more, and of
those lasting 10 minutes, 68% persisted at least another 5.  This is the
evidence for poisoning only after a persistence threshold.
"""

from repro.analysis.residual import residual_duration_curve
from repro.control.decision import ResidualDurationModel
from repro.experiments.tables import study


def test_fig5_residual_duration(write):
    write("fig5_residual_duration")
    trace = study("outage_trace")
    curve = residual_duration_curve(trace.durations, tuple(range(0, 31, 5)))
    model = ResidualDurationModel(trace.durations)

    # Shape: residual duration grows with elapsed time (the paper's
    # core claim), and the conditional survival probabilities are high.
    medians = [p.median_minutes for p in curve if p.median_minutes]
    assert medians[0] < medians[-1]
    assert 0.40 <= model.survival_probability(300.0, 300.0) <= 0.80
    assert 0.55 <= model.survival_probability(600.0, 300.0) <= 0.90
    assert 0.06 <= 1.0 - trace.fraction_shorter_than(299.0) <= 0.20


def test_fig5_poison_decision_rule(write):
    """§4.2's decision: wait ~5 minutes, then poisoning pays off."""
    write("fig5_decision_rule")
    model = ResidualDurationModel(study("outage_trace").durations)
    assert not model.decide(60).poison   # young outages: wait
    assert model.decide(600).poison      # persistent outages: act
