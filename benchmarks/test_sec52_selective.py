"""§5.2 — the Internet2 selective-poisoning experiment.

Paper: announcing one prefix clean from UWash and poisoned (for I2) from
UWisc shifted every path that had used I2->WiscNet onto I2->PNW-Gigapop
instead, without cutting I2 off and without changing how ASes that never
used I2 routed.  We recreate the situation with a two-provider origin.
"""

from repro.experiments.tables import study


def test_sec52_selective_poisoning(write):
    write("sec52_selective")
    result = study("selective")

    # The target keeps a route, and it leaves through the clean provider.
    assert result["clean_egress"]
    assert result["unrelated_changed"] <= max(
        1, result["unrelated_total"] // 20
    )
