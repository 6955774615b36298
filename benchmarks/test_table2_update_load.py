"""Table 2 — Internet-wide update load of poisoning at scale.

Paper: daily path changes per router = I x T x P(d) x U, with the Hubble
dataset supplying P(d).  For small deployments (I <= 0.1) the added load
stays under 1% of the ~110K updates/day an edge router already sees; a
large deployment (I = 0.5, T = 1) poisoning after only 5 minutes becomes
significant, and waiting longer or monitoring fewer networks brings it
back under 10%.
"""

from repro.experiments.tables import PAPER_TABLE2
from repro.workloads.hubble import EDGE_ROUTER_DAILY_UPDATES


def test_table2_update_load(write):
    table = write("table2_update_load")
    # (I, T, d) -> measured daily path changes.
    by_key = {tuple(row[:3]): row[3] for row in table.rows}

    # Shape assertions: within ~2x of the paper cell-by-cell, exact
    # linear scaling in I and T, and the qualitative load conclusions.
    for key, measured in by_key.items():
        paper = PAPER_TABLE2[key]
        assert 0.4 * paper <= measured <= 2.5 * paper, (key, measured)
    assert by_key[(0.1, 0.5, 15)] / by_key[(0.01, 0.5, 15)] == 10.0
    # Small deployment: a few percent of edge-router load at most.
    assert by_key[(0.1, 1.0, 15)] < 0.05 * EDGE_ROUTER_DAILY_UPDATES
    assert by_key[(0.01, 1.0, 15)] < 0.01 * EDGE_ROUTER_DAILY_UPDATES
    # Large deployment at d=5 is significant; waiting to d=60 tames it.
    assert by_key[(0.5, 1.0, 5)] > 0.20 * EDGE_ROUTER_DAILY_UPDATES
    assert by_key[(0.5, 1.0, 60)] < 0.10 * EDGE_ROUTER_DAILY_UPDATES
