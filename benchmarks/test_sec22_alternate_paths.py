"""§2.2 — policy-compliant spliced alternate paths exist during outages.

Paper: over a week of all-pairs PlanetLab traceroutes (~15,000 outages of
>= 3 ten-minute rounds), spliced policy-compliant paths around the
failing AS existed for 49% of outages overall and for 83% of outages
lasting at least an hour; 98% of first-round alternates persisted.

We report two bounds: the paper's observed-triple export test (a
conservative lower bound — our simulated mesh observes far fewer triples
relative to its path diversity than a week of PlanetLab + iPlane data
did) and the ground-truth valley-free test the triple heuristic
approximates.  The paper's numbers sit between the bounds.
"""

from repro.experiments.tables import study


def test_sec22_alternate_path_existence(write):
    write("sec22_alternate_paths")
    alternate, _graph = study("alternate_paths")
    overall_v = alternate.overall_fraction_valley
    long_v = alternate.fraction_for_long_outages(3600.0, valley=True)

    # Shape: alternates exist for roughly half the outages under the
    # conservative test; long/core outages are at least as avoidable,
    # and strictly more avoidable under the ground-truth test.
    assert 0.35 <= alternate.overall_fraction <= 0.70
    assert long_v >= overall_v
    assert long_v >= 0.80
    assert overall_v >= 0.75


def test_sec22_splice_persistence(write):
    """Paper: for 98% of outages where an alternate existed in the first
    round, it persisted for the outage's duration.  Simulated paths are
    stable between control-plane events, so persistence is exact."""
    (row,) = write("sec22_persistence").rows
    assert row[1] >= 0.95
