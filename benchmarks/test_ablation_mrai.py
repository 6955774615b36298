"""Ablation — MRAI timer setting vs. convergence behaviour.

The paper's convergence numbers ride on routers' ~30 s MRAI batching.
This bench re-runs a small poisoning study at several MRAI settings to
show (a) prepending's benefit is robust across timer settings and (b)
global convergence time scales with the timer, as expected from the
Labovitz convergence results the paper builds on.
"""


def test_ablation_mrai(write):
    rows = write("ablation_mrai").rows

    by_mrai = {r[0]: r for r in rows}
    # Prepending wins at every timer setting.
    for mrai, prepend_instant, plain_instant, _gc in rows:
        assert prepend_instant >= plain_instant
    # Path exploration delay grows with the timer.
    assert by_mrai[60.0][3] >= by_mrai[5.0][3]
