"""Tests for the converged-topology disk cache."""

import pickle

from repro.bgp.engine import EngineConfig
from repro.runner import DiskCache, RunStats, converged_internet
from repro.runner import cache as runner_cache
from repro.runner.cache import (
    CACHE_SCHEMA_VERSION,
    cache_key,
    resolve_cache,
)


class TestCacheKey:
    def test_stable_and_order_insensitive(self):
        assert cache_key("ns", {"a": 1, "b": 2}) == cache_key(
            "ns", {"b": 2, "a": 1}
        )

    def test_sensitive_to_params_and_namespace(self):
        base = cache_key("ns", {"a": 1})
        assert cache_key("ns", {"a": 2}) != base
        assert cache_key("other", {"a": 1}) != base

    def test_schema_9_entries_miss(self, tmp_path, monkeypatch):
        """Schema-9 pickles carry ``(src, dst)``-keyed solution wire
        state and list-shaped speaker sessions: never read them back."""
        assert CACHE_SCHEMA_VERSION == 10
        cache = DiskCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(runner_cache, "CACHE_SCHEMA_VERSION", 9)
            cache.put("converged", {"x": 1}, "schema-9 engine")
            assert cache.get("converged", {"x": 1}) == "schema-9 engine"
        assert cache.get("converged", {"x": 1}) is None


class TestDiskCache:
    def test_miss_then_hit(self, tmp_path):
        stats = RunStats()
        cache = DiskCache(tmp_path, stats=stats)
        assert cache.get("t", {"x": 1}) is None
        cache.put("t", {"x": 1}, {"payload": 42})
        assert cache.get("t", {"x": 1}) == {"payload": 42}
        assert stats.counters["cache.misses"] == 1
        assert stats.counters["cache.hits"] == 1
        assert stats.cache_hit_rate == 0.5

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("t", {"x": 1}, "ok")
        path = cache._path("t", cache_key("t", {"x": 1}))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("t", {"x": 1}) is None

    def test_resolve_cache_passthrough_and_path(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert resolve_cache(cache) is cache
        built = resolve_cache(str(tmp_path))
        assert isinstance(built, DiskCache)
        assert built.root == str(tmp_path)

    def test_resolve_cache_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        built = resolve_cache(None)
        assert built is not None and built.root == str(tmp_path)


class TestConvergedBaselineCache:
    def test_warm_hit_is_byte_identical_to_cold(self, tmp_path):
        stats = RunStats()
        cache = DiskCache(tmp_path, stats=stats)
        cold = converged_internet("tiny", seed=4, cache=cache, stats=stats)
        assert stats.counters["cache.misses.converged"] == 1
        warm = converged_internet("tiny", seed=4, cache=cache, stats=stats)
        assert stats.counters["cache.hits.converged"] == 1
        assert pickle.dumps(cold.engine) == pickle.dumps(warm.engine)
        assert pickle.dumps(cold.graph) == pickle.dumps(warm.graph)

    def test_engine_config_change_invalidates(self, tmp_path):
        stats = RunStats()
        cache = DiskCache(tmp_path, stats=stats)
        converged_internet("tiny", seed=4, cache=cache, stats=stats)
        converged_internet(
            "tiny",
            seed=4,
            engine_config=EngineConfig(seed=4, mrai=5.0),
            cache=cache,
            stats=stats,
        )
        assert stats.counters["cache.misses.converged"] == 2
        assert "cache.hits.converged" not in stats.counters

    def test_seed_and_origin_knobs_invalidate(self, tmp_path):
        stats = RunStats()
        cache = DiskCache(tmp_path, stats=stats)
        converged_internet("tiny", seed=4, cache=cache, stats=stats)
        converged_internet("tiny", seed=5, cache=cache, stats=stats)
        converged_internet(
            "tiny", seed=4, origin_providers=2, cache=cache, stats=stats
        )
        assert stats.counters["cache.misses.converged"] == 3

    def test_drivers_reuse_the_converged_entry(self, tmp_path):
        from repro.experiments.efficacy import run_topology_efficacy_study

        stats = RunStats()
        cache = DiskCache(tmp_path, stats=stats)
        cold, _ = run_topology_efficacy_study(
            scale="tiny", seed=4, max_cases=20, cache=cache, stats=stats
        )
        warm_stats = RunStats()
        warm, _ = run_topology_efficacy_study(
            scale="tiny", seed=4, max_cases=20, cache=cache,
            stats=warm_stats,
        )
        assert warm_stats.counters["cache.hits.converged"] == 1
        assert cold.outcomes == warm.outcomes
