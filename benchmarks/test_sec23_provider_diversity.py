"""§2.3 / §5.2 — provider diversity: forward choice vs. reverse control.

Paper: with routes from five university providers, a silent failure of
the last AS link before a destination could be dodged on the *forward*
path for 90% of 114 feed ASes by choosing another provider; on the
*reverse* path, selective poisoning shifted 73% of the feeds' first-hop
AS links while leaving them with a route.
"""

from repro.experiments.tables import study


def test_sec23_forward_vs_reverse_avoidance(write):
    write("sec23_provider_diversity")
    diversity, _graph = study("diversity")

    # Shape: both mechanisms avoid a solid majority of links.
    assert diversity.forward_fraction >= 0.60
    assert diversity.reverse_fraction >= 0.60
    # And neither is trivially perfect (single-homed feeds exist).
    assert diversity.reverse_fraction <= 0.98
