"""Fig. 1 — outage-duration CDF vs. share of total unavailability.

Paper: for partial outages observed from EC2 (10,308 events, >= 90 s),
more than 90% lasted at most 10 minutes, yet 84% of the total
unavailability came from outages longer than 10 minutes.
"""

from repro.analysis.cdf import CDF
from repro.experiments.tables import study


def test_fig1_duration_vs_unavailability(write):
    write("fig1_outage_durations")
    trace = study("outage_trace")

    # The headline shape must hold.
    assert trace.fraction_shorter_than(600.0) > 0.90
    assert 0.75 <= trace.unavailability_share_longer_than(600.0) <= 0.92
    cdf = CDF(trace.durations)
    assert cdf.median == 90.0  # paper: median was the 90 s minimum
