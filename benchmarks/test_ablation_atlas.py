"""Ablation — the historical path atlas.

Reverse-path isolation depends on knowing which hops the destination
*used to* route through: without atlas history there is nothing to ping
behind the failure.  This bench compares isolation with a primed atlas
against isolation with none, and measures sensitivity to the number of
historical paths consulted.
"""

from repro.experiments.tables import study


def test_ablation_atlas_necessity(write):
    write("ablation_atlas")
    result = study("atlas_ablation")

    assert result["cases"] > 0
    assert result["with_atlas"] >= 0.8
    # Nothing to ping behind the failure.
    assert result["without_atlas"] == 0.0
    assert result["shallow"] <= result["with_atlas"] + 1e-9
