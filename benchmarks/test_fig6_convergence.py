"""Fig. 6 — per-peer convergence time after poisoned announcements.

Paper: with an O-O-O prepended baseline, >95% of peers that were NOT
routing through the poisoned AS converge instantly (a single update) and
99% within 50 s; without prepending, <70% converge instantly.  Affected
peers also settle faster with prepending (96% vs 86% within 50 s).
Global convergence medians: 91 s with prepending vs 133 s without.
"""

from repro.experiments.tables import study


def test_fig6_convergence_curves(write):
    write("fig6_convergence")
    conv, _graph = study("mux")

    # Shape assertions: prepending keeps unaffected peers stable.
    assert conv.instant_fraction(True, False) >= 0.95
    assert conv.instant_fraction(False, False) < 0.70
    assert conv.converged_within(True, False, 50.0) >= 0.95
    # Prepending speeds global convergence.
    assert (
        conv.global_convergence_percentile(True, 0.5)
        <= conv.global_convergence_percentile(False, 0.5)
    )


def test_fig6_update_counts(write):
    """Paper: with prepending, 97% of unaffected peers made only a single
    update; without, only 64% (36% explored alternatives)."""
    table = write("fig6_update_counts")
    prepend, plain = (row[1] for row in table.rows)
    assert prepend > plain
    assert prepend >= 0.90
