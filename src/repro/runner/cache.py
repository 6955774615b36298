"""Content-addressed on-disk cache for expensive experiment inputs.

Entries are keyed on a SHA-256 digest of their canonicalized parameters
(plus a schema version), so any change to a topology knob or BGP engine
config lands on a different key and stale entries are simply never read
again.  Payloads are pickles written atomically (temp file + rename), so
concurrent worker processes can share one cache directory safely.

The cache is opt-in: drivers take ``cache=None`` (disabled) or a
:class:`DiskCache`; ``DiskCache.from_env()`` picks up ``REPRO_CACHE_DIR``
so benchmarks and CI can turn caching on without threading a path
through every call site.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Mapping, Optional, Union

from repro.runner.stats import RunStats

#: Bump to invalidate every existing cache entry (format change).
#: 2: Route/Announcement became slots dataclasses — pickles from schema 1
#: would fail to restore into the slotted classes.
#: 5: Prefix caches its hash, the engine's dirty record is per row.
#: 6: Event and PingResult grew slots; FlatLPM and PrefixAxis lost theirs
#: for the numpy copies.
#: 7: Route/Announcement/Withdrawal are tuples; sessions carry their key,
#: receiver and FIFO floor, speakers their session list.
#: 8: speakers carry their resolved policy, configs are frozen.
#: 9: Prefix is a (base, length) tuple; schema-8 pickles carry its slots.
#: 10: PrefixSolution.sent by exporter, BGPSpeaker.sessions a dict.
CACHE_SCHEMA_VERSION = 10

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def cache_key(namespace: str, params: Mapping[str, Any]) -> str:
    """Stable digest for *params* (JSON-canonicalized, sorted keys)."""
    payload = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "ns": namespace, "params": params},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class DiskCache:
    """A directory of content-addressed pickle files."""

    def __init__(
        self, root: Union[str, os.PathLike], stats: Optional[RunStats] = None
    ) -> None:
        self.root = os.fspath(root)
        self.stats = stats if stats is not None else RunStats()

    @classmethod
    def from_env(
        cls, stats: Optional[RunStats] = None
    ) -> Optional["DiskCache"]:
        root = os.environ.get(ENV_CACHE_DIR)
        if not root:
            return None
        return cls(root, stats=stats)

    @classmethod
    def maybe(
        cls,
        root: Optional[Union[str, os.PathLike]],
        stats: Optional[RunStats] = None,
    ) -> Optional["DiskCache"]:
        """A cache at *root*, or None when *root* is None (workers use
        this to rebuild the main process's cache from a plain path)."""
        if root is None:
            return None
        return cls(root, stats=stats)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def _path(self, namespace: str, digest: str) -> str:
        return os.path.join(self.root, namespace, f"{digest}.pkl")

    def get(self, namespace: str, params: Mapping[str, Any]) -> Any:
        """The cached object, or None on a miss (counted either way)."""
        path = self._path(namespace, cache_key(namespace, params))
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError):
            self.stats.count("cache.misses")
            self.stats.count(f"cache.misses.{namespace}")
            return None
        self.stats.count("cache.hits")
        self.stats.count(f"cache.hits.{namespace}")
        return payload

    def put(
        self, namespace: str, params: Mapping[str, Any], value: Any
    ) -> None:
        """Store *value*; atomic, last-writer-wins."""
        path = self._path(namespace, cache_key(namespace, params))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.stats.count("cache.writes")


def resolve_cache(
    cache: Optional[Union[DiskCache, str, os.PathLike]],
    stats: Optional[RunStats] = None,
) -> Optional[DiskCache]:
    """Normalize a driver's ``cache`` argument.

    Accepts an existing :class:`DiskCache`, a directory path, or None —
    None falls back to ``REPRO_CACHE_DIR`` (disabled when unset).
    """
    if isinstance(cache, DiskCache):
        if stats is not None:
            cache.stats = stats
        return cache
    if cache is not None:
        return DiskCache(cache, stats=stats)
    return DiskCache.from_env(stats=stats)
