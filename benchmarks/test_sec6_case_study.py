"""§6 — the end-to-end case study: detect, isolate, poison, unpoison.

Paper: on October 3-4 2011 LIFEGUARD repaired a reverse-path outage from
a Taiwanese PlanetLab node to the University of Wisconsin by poisoning
UUNET, kept a sentinel on the broken path, and withdrew the poison when
the sentinel started working again around 4 am.
"""

import pytest

from repro.analysis.reporting import Table
from repro.control.lifeguard import RepairState
from repro.dataplane.failures import ASForwardingFailure
from repro.isolation.direction import FailureDirection
from repro.workloads.scenarios import build_deployment

HOUR = 3600.0
OUTAGE_START = 20.25 * HOUR
REPAIR_TIME = 28.08 * HOUR


@pytest.fixture(scope="module")
def case_study():
    scenario = build_deployment(scale="small", seed=21, num_providers=2)
    lifeguard = scenario.lifeguard
    target = scenario.targets[0]
    bad_asn = scenario.reverse_transits(target)[0]
    lifeguard.prime_atlas(now=0.0)
    lifeguard.dataplane.failures.add(
        ASForwardingFailure(
            asn=bad_asn,
            toward=lifeguard.sentinel_manager.sentinel,
            start=OUTAGE_START,
            end=REPAIR_TIME,
        )
    )
    lifeguard.run(start=OUTAGE_START, end=30.0 * HOUR)
    record = next(
        r for r in lifeguard.records if r.poisoned_asn == bad_asn
    )
    return scenario, record, bad_asn


def test_sec6_repair_timeline(benchmark, case_study, results_dir):
    scenario, record, bad_asn = benchmark(lambda: case_study)

    table = Table(
        "Sec 6: case-study repair timeline",
        ["event", "measured", "paper analogue"],
    )
    table.add_row("outage start (h)", record.outage.start / HOUR,
                  "8:15 pm Oct 3")
    table.add_row("detected after (s)",
                  record.outage.detected - record.outage.start,
                  "minutes of failed test traffic")
    table.add_row("direction", record.isolation.direction.value,
                  "reverse (spoofed pings)")
    table.add_row("poisoned AS", f"AS{record.poisoned_asn}",
                  "UUNET (AS701)")
    table.add_row("convergence after poison (s)",
                  record.convergence_seconds,
                  "brief convergence loop, then repaired")
    table.add_row("connectivity restored (h)",
                  record.outage.end / HOUR, "shortly after poisoning")
    table.add_row("sentinel detected repair (h)",
                  record.repair_detected_time / HOUR,
                  "just after 4 am Oct 4")
    table.add_row("unpoisoned (h)", record.unpoison_time / HOUR,
                  "poison removed after repair")
    table.emit(results_dir, "sec6_case_study.txt")

    assert record.isolation.direction is FailureDirection.REVERSE
    assert record.isolation.blamed_asn == bad_asn
    assert record.outage.end is not None
    assert record.outage.end < REPAIR_TIME  # repaired before the network
    assert record.repair_detected_time >= REPAIR_TIME
    assert record.state is RepairState.UNPOISONED
    # §4.2: detection + isolation + convergence fits the ~7 minute
    # budget that still saves 80% of the unavailability.
    assert record.outage.end - record.outage.start <= 900.0
