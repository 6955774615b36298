"""Tests for CDFs, residual curves, loss replay, and report rendering."""

import pytest

from repro.analysis.cdf import CDF
from repro.analysis.loss import ConvergenceLossReplay
from repro.analysis.reporting import Table, format_figure_series
from repro.analysis.residual import residual_duration_curve
from repro.bgp.engine import BGPEngine
from repro.bgp.messages import make_path
from repro.errors import ReproError
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship


class TestCDF:
    def test_at_and_percentile(self):
        cdf = CDF([1, 2, 3, 4, 5])
        assert cdf.at(3) == 0.6
        assert cdf.at(0.5) == 0.0
        assert cdf.at(10) == 1.0
        assert cdf.median == 3
        assert cdf.percentile(0.0) == 1
        assert cdf.percentile(1.0) == 5

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            CDF([])

    def test_mean_min_max(self):
        cdf = CDF([2, 4, 6])
        assert cdf.mean == 4
        assert cdf.min == 2 and cdf.max == 6

    def test_points_monotonic(self):
        cdf = CDF(range(100))
        points = cdf.points(num_points=11)
        ys = [y for _, y in points]
        assert ys == sorted(ys)
        assert ys[-1] == 1.0


class TestResidualCurve:
    def test_heavy_tail_raises_residual(self):
        # 90 short outages of 2 min, 10 long outages of 2 hours.
        durations = [120.0] * 90 + [7200.0] * 10
        curve = residual_duration_curve(durations, elapsed_minutes=[0, 5])
        at0, at5 = curve
        # At elapsed 0 the median residual is short...
        assert at0.median_minutes == pytest.approx(2.0, abs=0.5)
        # ...but every survivor at 5 minutes is a long outage.
        assert at5.survivors == 10
        assert at5.median_minutes == pytest.approx(115.0, abs=1.0)

    def test_no_survivors_yields_none(self):
        curve = residual_duration_curve([60.0], elapsed_minutes=[5])
        assert curve[0].survivors == 0
        assert curve[0].mean_minutes is None


class TestLossReplay:
    @pytest.fixture()
    def poisoned_engine(self):
        """Diamond where poisoning A(6) forces E(5) to reroute."""
        g = ASGraph()
        for asn in (1, 2, 3, 4, 5, 6):
            g.add_as(asn)
        p = Prefix("10.200.0.0/16")
        g.assign_prefix(1, p)
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(2, 3, Relationship.PROVIDER)
        g.add_link(2, 6, Relationship.PROVIDER)
        g.add_link(4, 3, Relationship.PROVIDER)
        g.add_link(5, 4, Relationship.PROVIDER)
        g.add_link(5, 6, Relationship.PROVIDER)
        engine = BGPEngine(g)
        engine.originate(1, p, path=make_path(1, prepend=3))
        engine.run()
        poison_time = engine.now
        engine.originate(1, p, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        return engine, p, poison_time

    def test_sources_delivered_after_convergence(self, poisoned_engine):
        engine, prefix, poison_time = poisoned_engine
        replay = ConvergenceLossReplay(engine, prefix)
        assert replay.delivery_outcome(5, engine.now + 1) == "delivered"
        assert replay.delivery_outcome(3, engine.now + 1) == "delivered"
        # The poisoned AS itself is cut off.
        assert replay.delivery_outcome(6, engine.now + 1) == "blackhole"

    def test_loss_timeline_bounds(self, poisoned_engine):
        engine, prefix, poison_time = poisoned_engine
        replay = ConvergenceLossReplay(engine, prefix)
        samples = replay.loss_timeline(
            [3, 4, 5], poison_time, engine.now + 10
        )
        assert samples
        assert all(0.0 <= s.loss_rate <= 1.0 for s in samples)
        assert samples[-1].lost == 0

    def test_overall_loss_excludes_cut_off_sources(self, poisoned_engine):
        engine, prefix, poison_time = poisoned_engine
        replay = ConvergenceLossReplay(engine, prefix)
        rate = replay.overall_loss_rate(
            [3, 4, 5, 6], poison_time, engine.now + 10
        )
        assert 0.0 <= rate < 1.0


class TestReporting:
    def test_table_renders_aligned(self):
        table = Table("Demo", ["metric", "paper", "measured"])
        table.add_row("alpha", 0.9, 0.8811)
        table.add_row("count", 10308, 10308)
        table.add_note("synthetic data")
        text = table.render()
        assert "Demo" in text
        assert "0.881" in text
        assert "10,308" in text
        assert "note: synthetic data" in text

    def test_table_rejects_wrong_arity(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_table_emit_prints_and_returns_the_text(self, capsys):
        table = Table("My Result", ["a"])
        table.add_row(1)
        text = table.emit()
        assert capsys.readouterr().out == f"\n{text}\n\n"
        assert text.startswith("My Result\n=========")

    def test_figure_series_formatting(self):
        text = format_figure_series(
            "Fig X", [("events", [(1.0, 0.5), (10.0, 1.0)])],
            x_label="minutes", y_label="cdf",
        )
        assert "Fig X" in text and "events" in text
