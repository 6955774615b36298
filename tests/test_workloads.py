"""Tests for the outage trace generator, the Table 2 load model, and
scenarios."""

import math
import statistics

import pytest

from repro.control.decision import ResidualDurationModel
from repro.errors import ReproError
from repro.workloads.hubble import (
    P5_PER_DAY,
    estimate_update_load,
    outages_per_day_at_least,
)
from repro.workloads.outages import (
    MIN_OUTAGE_SECONDS,
    OutageTraceConfig,
    duration_survival,
    generate_outage_trace,
)
from repro.workloads.scenarios import build_deployment, build_internet


class TestOutageTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_outage_trace(seed=42)

    def test_size_matches_study(self, trace):
        assert len(trace) == 10308

    def test_minimum_duration_floor(self, trace):
        assert min(trace.durations) >= MIN_OUTAGE_SECONDS

    def test_durations_quantized_to_rounds(self, trace):
        assert all(d % 30.0 == 0 for d in trace.durations)

    def test_fig1_anchor_most_outages_short(self, trace):
        """>90% of outages lasted at most 10 minutes."""
        assert trace.fraction_shorter_than(600.0) > 0.90

    def test_fig1_anchor_long_outages_dominate_downtime(self, trace):
        """~84% of unavailability from outages over 10 minutes."""
        share = trace.unavailability_share_longer_than(600.0)
        assert 0.75 <= share <= 0.92

    def test_median_at_detection_floor(self, trace):
        assert statistics.median(trace.durations) == MIN_OUTAGE_SECONDS

    def test_partial_fraction(self, trace):
        fraction = sum(trace.partial) / len(trace)
        assert 0.74 <= fraction <= 0.84  # paper: 79%

    def test_residual_conditioning(self, trace):
        """Of outages >= 5 min, about half last >= 5 more (§4.2)."""
        model = ResidualDurationModel(trace.durations)
        p = model.survival_probability(300.0, 300.0)
        assert 0.4 <= p <= 0.75

    def test_deterministic_per_seed(self):
        a = generate_outage_trace(seed=7)
        b = generate_outage_trace(seed=7)
        assert a.durations == b.durations

    def test_cdf_output_shape(self, trace):
        points = trace.duration_cdf([90.0, 600.0, 3600.0])
        assert len(points) == 3
        durations, events, downtime = zip(*points)
        assert events == tuple(sorted(events))
        assert downtime == tuple(sorted(downtime))


class TestDurationSurvival:
    def test_closed_form(self):
        for seconds in (300.0, 900.0, 3600.0):
            expected = 0.86 * math.exp(-(seconds - 90.0) / 30.0) + (
                0.14 * (220.0 / seconds) ** 0.7
            )
            assert duration_survival(seconds) == pytest.approx(expected)

    def test_a_sampled_trace_agrees_within_sampling_error(self):
        n = 20_000
        trace = generate_outage_trace(
            OutageTraceConfig(num_outages=n), seed=3
        )
        for seconds in (300.0, 900.0, 3600.0, 86400.0):
            s = duration_survival(seconds)
            observed = sum(d >= seconds for d in trace.durations) / n
            assert abs(observed - s) <= 4.0 * math.sqrt(s * (1 - s) / n), (
                seconds, observed, s,
            )

    def test_outside_the_exact_range_is_refused(self):
        for seconds in (90.0, 200.0, 250.0, 2e5):
            with pytest.raises(ReproError):
                duration_survival(seconds)
        with pytest.raises(ReproError):
            outages_per_day_at_least(7.25)


class TestUpdateLoadModel:
    def test_p5_anchor(self):
        assert outages_per_day_at_least(5) == pytest.approx(P5_PER_DAY)

    def test_rates_decrease_with_duration(self):
        p5 = outages_per_day_at_least(5)
        p15 = outages_per_day_at_least(15)
        p60 = outages_per_day_at_least(60)
        assert p5 > p15 > p60 > 0

    def test_update_load_grid(self):
        grid = estimate_update_load()
        assert len(grid) == 18  # 3 x 2 x 3
        # Load scales linearly in I and T.
        by_key = {
            (e.deploying_fraction, e.monitored_fraction, e.wait_minutes): e
            for e in grid
        }
        small = by_key[(0.01, 0.5, 15.0)].daily_path_changes
        large = by_key[(0.1, 0.5, 15.0)].daily_path_changes
        assert large == pytest.approx(small * 10)
        # Small deployments stay under 1% of an edge router's daily load.
        assert by_key[(0.01, 1.0, 15.0)].daily_path_changes < 1100
        # I = 0.01, T = 0.5 at d = 5 is the paper's own cell.
        assert by_key[(0.01, 0.5, 5.0)].daily_path_changes == (
            pytest.approx(393.0)
        )


class TestScenarios:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ReproError):
            build_internet("galactic")

    def test_deployment_wiring(self):
        scenario = build_deployment(scale="tiny", seed=2)
        assert scenario.origin_asn in scenario.graph
        assert len(scenario.graph.providers(scenario.origin_asn)) == 2
        assert scenario.origin_asn % 2 == 0
        assert len(scenario.targets) == 4
        # Origin VP plus helpers.
        assert "origin" in scenario.vantage_points
        assert len(scenario.vantage_points) >= 4

    def test_deployment_paths_converged(self):
        scenario = build_deployment(scale="tiny", seed=2)
        vp = scenario.vantage_points.get("origin")
        for target in scenario.targets:
            assert scenario.lifeguard.prober.ping(vp.rid, target).success

    def test_production_prefix_visible_everywhere(self):
        scenario = build_deployment(scale="tiny", seed=2)
        reachable = 0
        for asn in scenario.graph.ases():
            if asn == scenario.origin_asn:
                continue
            if scenario.engine.as_path(asn, scenario.production_prefix):
                reachable += 1
        assert reachable >= len(scenario.graph) - 3
