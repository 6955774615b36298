"""The historical path atlas (§4.1.2, "Maintain background atlas").

For every monitored (vantage point, destination) pair the atlas keeps
timestamped forward paths (from traceroute) and reverse paths (from reverse
traceroute).  During failures these historical paths supply the candidate
failure locations and the hop lists the isolation engine pings.

The refresher also implements the §5.4 cost model: refreshing a stale
reverse path costs an amortized ~10 IP-option probes plus ~2 traceroutes,
against ~35 option probes for a from-scratch measurement, by caching
recently seen segments and reusing measurements across converging paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.dataplane.probes import Prober
from repro.dataplane.reverse_traceroute import ReverseTracerouteTool
from repro.measure.responsiveness import ResponsivenessDB
from repro.measure.vantage import VantagePoint, VantageSet
from repro.net.addr import Address


@dataclass
class AtlasEntry:
    """One timestamped path measurement."""

    time: float
    #: hop addresses in travel order (source side first).
    hops: Tuple[Address, ...]
    reached: bool = True


class PathAtlas:
    """Timestamped forward/reverse path store per (vp, destination)."""

    def __init__(self) -> None:
        self._forward: Dict[Tuple[str, int], List[AtlasEntry]] = {}
        self._reverse: Dict[Tuple[str, int], List[AtlasEntry]] = {}

    @staticmethod
    def _key(vp_name: str, destination: Union[str, Address]) -> Tuple[str, int]:
        return vp_name, Address(destination).value

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_forward(
        self,
        vp_name: str,
        destination: Union[str, Address],
        hops: Sequence[Address],
        time: float,
        reached: bool = True,
    ) -> None:
        """Store a forward path measurement (vp -> destination)."""
        entries = self._forward.setdefault(self._key(vp_name, destination), [])
        entries.append(AtlasEntry(time=time, hops=tuple(hops), reached=reached))

    def record_reverse(
        self,
        vp_name: str,
        destination: Union[str, Address],
        hops: Sequence[Address],
        time: float,
    ) -> None:
        """Store a reverse path measurement (destination -> vp)."""
        entries = self._reverse.setdefault(self._key(vp_name, destination), [])
        entries.append(AtlasEntry(time=time, hops=tuple(hops)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reverse_history(
        self,
        vp_name: str,
        destination: Union[str, Address],
        before: float = float("inf"),
        limit: Optional[int] = None,
    ) -> List[AtlasEntry]:
        """Reverse paths before *before*, newest first.

        Isolation walks these from the most recent backwards when the
        current path's suspects don't explain the failure (§4.1.2).
        """
        entries = self._reverse.get(self._key(vp_name, destination), [])
        out = [e for e in entries if e.time < before]
        out.reverse()
        return out[:limit] if limit is not None else out

    def forward_history(
        self,
        vp_name: str,
        destination: Union[str, Address],
        before: float = float("inf"),
        limit: Optional[int] = None,
    ) -> List[AtlasEntry]:
        """Forward paths before *before*, newest first."""
        entries = self._forward.get(self._key(vp_name, destination), [])
        out = [e for e in entries if e.time < before]
        out.reverse()
        return out[:limit] if limit is not None else out

    # ------------------------------------------------------------------
    # Chaos hooks (fault injection)
    # ------------------------------------------------------------------
    def pairs(self, reverse: bool = True) -> List[Tuple[str, int]]:
        """Every (vp_name, destination value) key in one store, sorted.

        Sorted so the fault injector visits pairs in a deterministic order
        regardless of measurement interleaving.
        """
        store = self._reverse if reverse else self._forward
        return sorted(store)

    def drop_latest(
        self,
        vp_name: str,
        destination: Union[str, int, Address],
        reverse: bool = True,
    ) -> bool:
        """Delete the newest entry for a pair (stale-atlas fault).

        Keeps at least one entry so staleness degrades history instead of
        erasing it — the real atlas was always *somewhat* stale, never
        absent for a monitored pair.  Returns True if an entry went.
        """
        store = self._reverse if reverse else self._forward
        entries = store.get(self._key(vp_name, destination))
        if not entries or len(entries) < 2:
            return False
        entries.pop()
        return True

    def truncate_latest(
        self,
        vp_name: str,
        destination: Union[str, int, Address],
        reverse: bool = True,
        min_hops: int = 2,
    ) -> bool:
        """Halve the newest entry's hop list (partial-measurement fault).

        Models a measurement recorded as complete that actually died
        partway: isolation then tests a path missing its far end.
        """
        store = self._reverse if reverse else self._forward
        entries = store.get(self._key(vp_name, destination))
        if not entries:
            return False
        latest = entries[-1]
        keep = max(min_hops, len(latest.hops) // 2)
        if keep >= len(latest.hops):
            return False
        entries[-1] = AtlasEntry(
            time=latest.time, hops=latest.hops[:keep], reached=False
        )
        return True


@dataclass
class RefreshStats:
    """Probe-cost accounting for one refresh pass (§5.4)."""

    paths_refreshed: int = 0
    option_probes: int = 0
    traceroute_probes: int = 0
    elapsed: float = 0.0

    @property
    def paths_per_minute(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.paths_refreshed / (self.elapsed / 60.0)


#: §5.4 cost model constants.
OPTION_PROBES_FRESH = 35      # from-scratch reverse traceroute
OPTION_PROBES_AMORTIZED = 10  # with caching/reuse across converging paths


class AtlasRefresher:
    """Keeps the atlas fresh for a set of monitored pairs."""

    def __init__(
        self,
        prober: Prober,
        vantage_points: VantageSet,
        atlas: PathAtlas,
        responsiveness: Optional[ResponsivenessDB] = None,
        use_incremental: bool = False,
    ) -> None:
        self.prober = prober
        self.vantage_points = vantage_points
        self.atlas = atlas
        self.responsiveness = responsiveness or ResponsivenessDB()
        self.reverse_tool = ReverseTracerouteTool(prober)
        #: measure reverse paths with the full record-route algorithm
        #: (per-probe accounting) instead of the amortized cost model.
        self.use_incremental = use_incremental
        #: (vp, destination) pairs measured at least once (cache warm).
        self._warm: set = set()

    def refresh_pair(
        self,
        vp: VantagePoint,
        destination: Union[str, Address],
        now: float,
    ) -> RefreshStats:
        """Re-measure forward and reverse paths for one monitored pair."""
        stats = RefreshStats()
        destination = Address(destination)

        trace = self.prober.traceroute(vp.rid, destination)
        stats.traceroute_probes += len(trace.hops)
        self.atlas.record_forward(
            vp.name,
            destination,
            trace.responding_hops(),
            time=now,
            reached=trace.reached,
        )
        for hop in trace.hops:
            if hop is not None:
                self.responsiveness.record(hop, True, now)

        helpers = [
            other.rid for other in self.vantage_points.others(vp.name)
        ]
        if self.use_incremental:
            probes_before = self.prober.probes_sent
            reverse = self.reverse_tool.measure_incremental(
                vp.rid, destination, vantage_rids=helpers
            )
            incremental_cost = self.prober.probes_sent - probes_before
        else:
            reverse = self.reverse_tool.measure(vp.rid, destination)
            if reverse is None and helpers:
                reverse = self.reverse_tool.measure_via_helpers(
                    vp.rid, destination, helpers
                )
            incremental_cost = None
        if reverse is not None:
            self.atlas.record_reverse(
                vp.name, destination, reverse.hops, time=now
            )
            key = (vp.name, destination.value)
            if incremental_cost is not None:
                cost = incremental_cost
            elif key in self._warm:
                cost = OPTION_PROBES_AMORTIZED
            else:
                cost = OPTION_PROBES_FRESH
            self._warm.add(key)
            stats.option_probes += cost
            stats.paths_refreshed += 1
        return stats

    def refresh_all(
        self,
        targets: Iterable[Union[str, Address]],
        now: float,
        seconds_per_pass: float = 600.0,
    ) -> RefreshStats:
        """Refresh every (vp, target) pair; returns aggregate stats."""
        total = RefreshStats(elapsed=seconds_per_pass)
        for vp in self.vantage_points:
            for target in targets:
                stats = self.refresh_pair(vp, target, now)
                total.paths_refreshed += stats.paths_refreshed
                total.option_probes += stats.option_probes
                total.traceroute_probes += stats.traceroute_probes
        return total
