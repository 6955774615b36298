"""§5.2 — packet loss during post-poisoning convergence.

Paper: following 60% of poisonings the overall loss rate during
convergence was under 1%; 98% stayed under 2%; only 2% of poisonings had
any 10-second round above 10% loss.  Working routes are barely disturbed.
"""

from repro.experiments.tables import study


def test_sec52_convergence_loss(write):
    write("sec52_loss")
    conv, _graph = study("mux")
    fractions = conv.loss_fractions((0.01, 0.02))

    # Shape: convergence loss is minimal for the vast majority.
    assert fractions[0.01] >= 0.60
    assert fractions[0.02] >= 0.90
    assert conv.spike_fraction(0.10) <= 0.10
