"""§7.1 — poisoning anomalies: quirky loop detection and peer filters.

Paper: some networks disable BGP loop detection (poisoning cannot touch
them); others raise the own-ASN limit (AS286 accepts one occurrence, so
inserting the ASN *twice* works); and Cogent-style networks reject
customer updates whose path contains one of their tier-1 peers, which
kept the paper's tier-1 poisons from propagating via Georgia Tech.
"""

from repro.experiments.tables import study


def test_sec71_loop_detection_quirks(write):
    write("sec71_loop_quirks")
    quirks = study("anomalies")["loop_quirks"]
    assert quirks["disabled"] == (True, True)
    assert quirks["maxas-2"] == (True, False)


def test_sec71_cogent_filter_blocks_propagation(write):
    write("sec71_cogent_filter")
    before, after = study("anomalies")["cogent_filter"]
    # The provider rejects the update outright, so propagation collapses.
    assert after < before * 0.2
