"""Robustness — repair while LIFEGUARD's own infrastructure is failing.

No single paper number corresponds to this table; it operationalizes the
deployment realities of §5.2 (crashing PlanetLab vantage points, lossy
probing, flapping Mux sessions, a perpetually somewhat-stale atlas).  The
bar: at moderate fault intensity the system must still repair a majority
of injected outages, and graceful degradation must hold the false-poison
count at zero — deferring on thin evidence instead of poisoning the wrong
AS.
"""

from repro.experiments.tables import MODERATE, study


def test_chaos_repair_under_faults(write):
    write("robustness")
    robustness = study("robustness")
    by_intensity = {p.intensity: p for p in robustness.points}

    # A clean run must repair everything it injected.
    assert by_intensity[0.0].repair_fraction == 1.0
    # Moderate chaos: repair a majority of the injected outages ...
    assert by_intensity[MODERATE].repair_fraction > 0.5
    # ... and never poison an AS that was not actually broken.
    assert robustness.max_false_poisons == 0


def test_chaos_injector_actually_fired():
    """The nonzero-intensity points must really have injected faults."""
    for point in study("robustness").points:
        if point.intensity == 0.0:
            assert point.stats.total_events == 0
        else:
            assert point.stats.probes_lost > 0
            assert point.stats.vp_crashes == 1
            assert point.stats.session_resets == 1
