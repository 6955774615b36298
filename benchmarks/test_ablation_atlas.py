"""Ablation — the historical path atlas.

Reverse-path isolation depends on knowing which hops the destination
*used to* route through: without atlas history there is nothing to ping
behind the failure.  This bench compares isolation with a primed atlas
against isolation with none, and measures sensitivity to the number of
historical paths consulted.
"""

import pytest

from repro.analysis.reporting import Table
from repro.dataplane.failures import ASForwardingFailure
from repro.isolation.isolator import FailureIsolator
from repro.measure.atlas import PathAtlas
from repro.topology.generate import prefix_for_asn
from repro.workloads.scenarios import build_deployment


@pytest.fixture(scope="module")
def reverse_failure_world():
    scenario = build_deployment(
        scale="small", seed=19, num_providers=2, num_helper_vps=6,
        num_targets=6,
    )
    lifeguard = scenario.lifeguard
    lifeguard.prime_atlas(now=0.0)
    cases = []
    for target in scenario.targets:
        transits = scenario.reverse_transits(target)
        if transits:
            cases.append((target, transits[0]))
    return scenario, cases


def _isolate_all(scenario, cases, atlas, depth):
    lifeguard = scenario.lifeguard
    isolator = FailureIsolator(
        lifeguard.prober,
        scenario.vantage_points,
        atlas,
        lifeguard.responsiveness,
        historical_depth=depth,
    )
    correct = 0
    for target, bad_asn in cases:
        failure = ASForwardingFailure(
            asn=bad_asn, toward=prefix_for_asn(scenario.origin_asn)
        )
        lifeguard.dataplane.failures.add(failure)
        result = isolator.isolate("origin", target, now=100.0)
        lifeguard.dataplane.failures.remove(failure)
        if result.blamed_asn == bad_asn:
            correct += 1
    return correct / max(1, len(cases))


def test_ablation_atlas_necessity(benchmark, reverse_failure_world,
                                  results_dir):
    scenario, cases = reverse_failure_world
    if not cases:
        pytest.skip("no reverse transits in this topology draw")

    def compare():
        with_atlas = _isolate_all(
            scenario, cases, scenario.lifeguard.atlas, depth=3
        )
        without_atlas = _isolate_all(scenario, cases, PathAtlas(), depth=3)
        shallow = _isolate_all(
            scenario, cases, scenario.lifeguard.atlas, depth=1
        )
        return with_atlas, without_atlas, shallow

    with_atlas, without_atlas, shallow = benchmark(compare)
    table = Table(
        "Ablation: historical atlas in reverse-path isolation",
        ["configuration", "correct-blame fraction"],
    )
    table.add_row("primed atlas, depth 3", with_atlas)
    table.add_row("primed atlas, depth 1", shallow)
    table.add_row("no atlas", without_atlas)
    table.add_note(f"{len(cases)} injected reverse-path failures")
    table.emit(results_dir, "ablation_atlas.txt")

    assert with_atlas >= 0.8
    assert without_atlas == 0.0  # nothing to ping behind the failure
    assert shallow <= with_atlas + 1e-9
