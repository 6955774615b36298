"""§5.4 — scalability: probe cost, isolation latency, atlas refresh rate.

Paper: fault isolation takes ~280 probes per outage and completes in
140 s on average for reverse-path outages; the optimized atlas refreshes
225 reverse paths per minute on average (502 peak) at an amortized ~10 IP
option probes (vs 35 from scratch) plus ~2 traceroutes per path.
"""

from repro.experiments.tables import study
from repro.isolation.direction import FailureDirection
from repro.measure.atlas import OPTION_PROBES_FRESH


def test_sec54_isolation_cost(write):
    write("sec54_isolation_cost")
    accuracy, _scenario = study("accuracy")
    seconds = accuracy.mean_isolation_seconds(
        (FailureDirection.REVERSE, FailureDirection.BIDIRECTIONAL)
    )
    assert 10 <= accuracy.mean_probes <= 500
    assert 100 <= seconds <= 200


def test_sec54_atlas_refresh_rate(write):
    write("sec54_atlas_refresh")
    refresh = study("atlas_refresh")
    assert refresh["paths_refreshed"] > 0
    assert refresh["probes_per_path"] < OPTION_PROBES_FRESH + 40
    assert refresh["paths_per_minute"] > 100
