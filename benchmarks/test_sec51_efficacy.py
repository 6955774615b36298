"""§5.1 — do ASes find routes around poisoned ASes?

Paper, in the wild: of 132 cases where a route-collector peer was routing
through an AS we poisoned, 102 (77%) found an alternate path; two-thirds
of the failures were poisons of a stub's only provider.  In simulation
over ~10M (path, transit AS) cases: alternates existed in 90%.
"""

from repro.experiments.tables import study


def test_sec51_wild_poisonings(write):
    write("sec51_wild")
    fraction, _found, total = study("mux")[0].alternate_route_fraction()
    assert 0.6 <= fraction <= 0.95
    assert total >= 30


def test_sec51_simulated_poisonings(write):
    write("sec51_simulated")
    efficacy, _graph = study("efficacy")
    assert 0.80 <= efficacy.fraction_with_alternates <= 0.97
    assert len(efficacy.outcomes) >= 5000
