"""Ablation — poisoning vs. the idealized AVOID_PROBLEM(X, P) primitive.

§3 designs a hypothetical signed announcement with three properties:
Avoidance (ASes with alternatives reroute), Backup (ASes without keep
their tainted route) and Notification (the flagged AS learns about it).
Poisoning approximates Avoidance and Notification but *inverts* Backup:
it cuts off the poisoned AS and everything captive behind it (hence the
sentinel machinery).  This bench quantifies the gap on the evaluation
topology: for each transit AS, how many ASes lose all connectivity under
poisoning vs. under the primitive?
"""

from repro.experiments.tables import study


def test_ablation_avoid_problem_vs_poisoning(write):
    write("ablation_avoid_problem")
    rows = study("avoid_problem")

    # The primitive never cuts anyone off; poisoning does.
    assert sum(r["avoid_cut"] for r in rows) == 0
    assert sum(r["poisoned_cut"] for r in rows) > 0
    # Both implement the Avoidance Property for ASes with alternatives.
    for row in rows:
        assert row["avoid_avoiding"] >= row["poisoned_avoiding"]
        assert row["notified"]
