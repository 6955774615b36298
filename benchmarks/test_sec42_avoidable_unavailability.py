"""§4.2 — how much unavailability could LIFEGUARD's repair avoid?

Paper: "even if LIFEGUARD takes five minutes to identify and locate a
failure before poisoning, and it then takes two minutes for routes to
converge, we can still potentially avoid 80% of the total unavailability
in our EC2 study."
"""

from repro.analysis.availability import (
    DEFAULT_REPAIR_LATENCY,
    avoidable_unavailability,
    latency_sweep,
)
from repro.experiments.tables import study


def test_sec42_avoidable_unavailability(write):
    write("sec42_avoidable_unavailability")
    durations = study("outage_trace").durations
    result = avoidable_unavailability(durations, DEFAULT_REPAIR_LATENCY)

    # The headline claim: the 7-minute budget saves most of the downtime.
    assert 0.70 <= result.avoided_fraction <= 0.92
    # Monotone: a faster repair saves more.
    fractions = [p.avoided_fraction for p in latency_sweep(durations)]
    assert fractions == sorted(fractions, reverse=True)
