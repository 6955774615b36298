"""Table 1 — the key-results summary, regenerated from the other studies.

Each row of the paper's Table 1 is recomputed from the session-scoped
experiment fixtures and printed side by side with the published value.
"""

from repro.analysis.reporting import Table
from repro.experiments.summary import table1_rows


def test_table1_key_results(benchmark, mux_study, efficacy_study,
                            accuracy_study, results_dir):
    conv_study, _ = mux_study
    eff_study, _ = efficacy_study
    acc_study, _ = accuracy_study

    rows = benchmark(table1_rows, conv_study, eff_study, acc_study)

    table = Table(
        "Table 1: key results (paper vs measured)",
        ["criterion", "paper", "measured"],
    )
    wild_fraction, found, total = rows["wild"]
    table.add_row(
        "effectiveness: poisons finding alternates (BGP-Mux)",
        "77%", f"{wild_fraction:.0%} ({found}/{total})",
    )
    table.add_row(
        "effectiveness: alternates in large-scale simulation",
        "90%", f"{rows['sim']:.0%}",
    )
    table.add_row(
        "disruptiveness: working routes reconverging instantly",
        "95%", f"{rows['instant']:.0%}",
    )
    table.add_row(
        "disruptiveness: poisonings with < 2% convergence loss",
        "98%", f"{rows['loss2']:.0%}",
    )
    table.add_row(
        "accuracy: consistent with both-end traceroutes",
        "93%", f"{rows['consistency']:.0%}",
    )
    table.add_row(
        "accuracy: differs from traceroute-only diagnosis",
        "40%", f"{rows['differs']:.0%}",
    )
    table.add_row(
        "scalability: isolation time (reverse outages)",
        "140 s", f"{rows['seconds']:.0f} s",
    )
    table.add_row(
        "scalability: probes per isolated failure",
        "280", f"{rows['probes']:.0f}",
    )
    table.add_row(
        "scalability: extra update load at 1% / 50% deployment",
        "<1% / <10-35%", "see Table 2 bench",
    )
    table.emit(results_dir, "table1_summary.txt")

    assert 0.6 <= wild_fraction <= 0.95
    assert rows["sim"] >= 0.80
    assert rows["instant"] >= 0.95
    assert rows["loss2"] >= 0.90
    assert rows["consistency"] >= 0.85
    assert 0.25 <= rows["differs"] <= 0.65
    assert 100 <= rows["seconds"] <= 200
