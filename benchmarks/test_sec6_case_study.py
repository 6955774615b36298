"""§6 — the end-to-end case study: detect, isolate, poison, unpoison.

Paper: on October 3-4 2011 LIFEGUARD repaired a reverse-path outage from
a Taiwanese PlanetLab node to the University of Wisconsin by poisoning
UUNET, kept a sentinel on the broken path, and withdrew the poison when
the sentinel started working again around 4 am.
"""

from repro.control.lifeguard import RepairState
from repro.experiments.tables import study
from repro.experiments.worlds import REPAIR_TIME
from repro.isolation.direction import FailureDirection


def test_sec6_repair_timeline(write):
    write("sec6_case_study")
    record, bad_asn = study("case_study")

    assert record.isolation.direction is FailureDirection.REVERSE
    assert record.isolation.blamed_asn == bad_asn
    assert record.outage.end is not None
    assert record.outage.end < REPAIR_TIME  # repaired before the network
    assert record.repair_detected_time >= REPAIR_TIME
    assert record.state is RepairState.UNPOISONED
    # §4.2: detection + isolation + convergence fits the ~7 minute
    # budget that still saves 80% of the unavailability.
    assert record.outage.end - record.outage.start <= 900.0
