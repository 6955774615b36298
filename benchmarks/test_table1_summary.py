"""Table 1 — the key-results summary, regenerated from the other studies.

Each row of the paper's Table 1 is recomputed from the BGP-Mux,
efficacy and accuracy studies and printed side by side with the
published value.
"""

from repro.experiments.summary import table1_rows
from repro.experiments.tables import study


def test_table1_key_results(write):
    write("table1_summary")
    rows = table1_rows(
        study("mux")[0], study("efficacy")[0], study("accuracy")[0]
    )

    assert 0.6 <= rows["wild"][0] <= 0.95
    assert rows["sim"] >= 0.80
    assert rows["instant"] >= 0.95
    assert rows["loss2"] >= 0.90
    assert rows["consistency"] >= 0.85
    assert 0.25 <= rows["differs"] <= 0.65
    assert 100 <= rows["seconds"] <= 200
