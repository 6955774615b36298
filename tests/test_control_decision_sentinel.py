"""Tests for the poison decision model and sentinel manager."""

import random

import pytest

from repro.control.decision import ResidualDurationModel
from repro.control.sentinel import (
    SentinelManager,
    SentinelStyle,
    covering_sentinel,
    unused_half,
)
from repro.dataplane.probes import Prober
from repro.errors import ControlError
from repro.net.addr import Prefix


class TestResidualDurationModel:
    def test_empty_sample_rejected(self):
        with pytest.raises(ControlError):
            ResidualDurationModel([])

    def test_survival_probability(self):
        model = ResidualDurationModel([100, 100, 100, 1000])
        # Of outages lasting >200s (just the 1000s one), all last 300 more.
        assert model.survival_probability(200, 300) == 1.0
        # Of all outages, only 1/4 lasts at least 300.
        assert model.survival_probability(0, 300) == 0.25

    def test_no_survivors(self):
        model = ResidualDurationModel([100.0])
        assert model.survival_probability(200, 10) == 0.0
        assert model.median_residual(200) is None

    def test_decide_waits_for_young_outages(self):
        model = ResidualDurationModel([90.0] * 50 + [7200.0] * 50)
        decision = model.decide(elapsed=120.0)
        assert not decision.poison
        assert "likely to resolve" in decision.rationale

    def test_decide_poisons_persistent_outages(self):
        model = ResidualDurationModel([90.0] * 50 + [7200.0] * 50)
        decision = model.decide(elapsed=400.0)
        assert decision.poison
        assert decision.expected_residual > 120.0

    def test_decide_declines_when_residual_small(self):
        # Everything dies at exactly 420s: at 400s the residual is 20s.
        model = ResidualDurationModel([420.0] * 100)
        decision = model.decide(elapsed=400.0)
        assert not decision.poison

    def test_residual_percentiles_ordered(self):
        model = ResidualDurationModel(
            [100, 200, 400, 800, 1600, 3200]
        )
        p25 = model.residual_percentile(50, 0.25)
        p50 = model.residual_percentile(50, 0.50)
        assert p25 <= p50


class _NaiveModel(ResidualDurationModel):
    """The model as first written: every query scans, subtracts from
    and re-sorts the whole history.  ``decide`` is inherited, so it
    runs on these answers."""

    def survivors(self, elapsed):
        return [d for d in self._durations if d > elapsed]

    def residual_percentile(self, elapsed, fraction):
        residuals = sorted(d - elapsed for d in self.survivors(elapsed))
        if not residuals:
            return None
        index = fraction * (len(residuals) - 1)
        low = int(index)
        high = min(low + 1, len(residuals) - 1)
        weight = index - low
        return residuals[low] * (1 - weight) + residuals[high] * weight


class TestResidualModelAgainstNaiveReference:
    """Reading the two survivors an interpolation needs off the sorted
    history gives bit-for-bit what sorting every residual gave."""

    def _samples(self, rng):
        rounds = [120.0 * k for k in range(1, 40)]
        yield [300.0]                                  # a single outage
        yield [300.0] * 7                              # one value only
        yield [90.0, 300.0, 300.0, 300.0, 7200.0]      # duplicates
        yield [0.1 + 0.2, 0.3, 1e-9, 1e9, 5e-324]      # rounding bait
        for _ in range(12):
            size = rng.randint(1, 60)
            yield [
                rng.choice(
                    [rng.choice(rounds), rng.uniform(0.0, 5000.0),
                     rng.lognormvariate(5.0, 2.0)]
                )
                for _ in range(size)
            ]

    def _queries(self, rng, sample):
        top = max(sample)
        elapsed = (
            [0.0, -5.0, top, top + 1.0, top - 1e-9, float("inf")]
            + sorted(set(sample))[:8]                  # ties at elapsed
            + [120.0 * rng.randint(0, 40) for _ in range(6)]
            + [rng.uniform(0.0, top) for _ in range(12)]
        )
        fractions = [0.0, 0.25, 0.5, 0.9, 1.0, rng.random(), rng.random()]
        return elapsed, fractions

    @pytest.mark.parametrize("seed", range(4))
    def test_every_query_is_bit_identical(self, seed):
        rng = random.Random(8100 + seed)
        empty = single = 0
        for sample in self._samples(rng):
            model, naive = ResidualDurationModel(sample), _NaiveModel(sample)
            elapsed, fractions = self._queries(rng, sample)
            for x in elapsed:
                survivors = naive.survivors(x)
                assert model.survivors(x) == survivors
                empty += not survivors
                single += len(survivors) == 1
                for fraction in fractions:
                    assert model.residual_percentile(x, fraction) == (
                        naive.residual_percentile(x, fraction)
                    ), (sample, x, fraction)
                assert model.median_residual(x) == naive.median_residual(x)
                for more in (0.0, 120.0, rng.uniform(0.0, 2000.0)):
                    assert model.survival_probability(x, more) == (
                        naive.survival_probability(x, more)
                    )
                assert model.decide(x) == naive.decide(x)
                assert model.decide(x, 60.0, 0.0) == naive.decide(x, 60.0, 0.0)
        assert empty and single


class TestSentinelHelpers:
    def test_covering_sentinel(self):
        assert covering_sentinel(Prefix("10.2.0.0/16")) == Prefix(
            "10.2.0.0/15"
        )

    def test_covering_sentinel_of_slash0_rejected(self):
        with pytest.raises(ControlError):
            covering_sentinel(Prefix("0.0.0.0/0"))

    def test_unused_half(self):
        production = Prefix("10.2.0.0/16")
        sentinel = Prefix("10.2.0.0/15")
        half = unused_half(production, sentinel)
        assert half == Prefix("10.3.0.0/16")

    def test_unused_half_requires_cover(self):
        with pytest.raises(ControlError):
            unused_half(Prefix("10.2.0.0/16"), Prefix("10.4.0.0/15"))


class TestSentinelManager:
    @pytest.fixture()
    def prober(self, dataplane):
        return Prober(dataplane)

    def _origin_router(self, small_internet):
        graph, topo, _engine = small_internet
        stub = graph.stubs()[0]
        return topo.routers_of(stub)[0], stub

    def test_less_specific_properties(self, small_internet, prober):
        rid, asn = self._origin_router(small_internet)
        production = small_internet[0].node(asn).prefixes[0]
        manager = SentinelManager(prober, rid, production)
        assert manager.can_detect_repair
        assert manager.provides_backup_route
        assert production.is_more_specific_of(manager.sentinel)

    def test_disjoint_requires_prefix(self, small_internet, prober):
        rid, asn = self._origin_router(small_internet)
        production = small_internet[0].node(asn).prefixes[0]
        with pytest.raises(ControlError):
            SentinelManager(
                prober, rid, production, style=SentinelStyle.DISJOINT
            )
        manager = SentinelManager(
            prober, rid, production,
            style=SentinelStyle.DISJOINT,
            disjoint_prefix=Prefix("198.51.0.0/16"),
        )
        assert manager.can_detect_repair
        assert not manager.provides_backup_route

    def test_none_style_cannot_detect(self, small_internet, prober):
        rid, asn = self._origin_router(small_internet)
        production = small_internet[0].node(asn).prefixes[0]
        manager = SentinelManager(
            prober, rid, production, style=SentinelStyle.NONE
        )
        assert not manager.can_detect_repair
        check = manager.check_repair(["10.0.0.1"])
        assert not check.repaired
        assert check.probes_used == 0
