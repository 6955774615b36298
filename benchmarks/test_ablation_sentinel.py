"""Ablation — sentinel prefix styles (§7.2).

The paper discusses three deployments: a covering less-specific sentinel
(backup route for captives + repair detection), a disjoint unused prefix
(repair detection only), and no sentinel (neither).  This bench verifies
each style delivers exactly its promised properties.
"""

from repro.experiments.tables import study


def test_ablation_sentinel_styles(write):
    write("ablation_sentinel")

    by_style = {r[0]: r for r in study("sentinel_styles")}
    # Captive lost the production route but keeps the covering sentinel.
    assert by_style["less-specific"][1]
    assert by_style["less-specific"][2] and by_style["less-specific"][3]
    assert by_style["disjoint"][2] and not by_style["disjoint"][3]
    assert not by_style["none"][2] and not by_style["none"][3]
