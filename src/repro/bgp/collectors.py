"""Route collectors: the RouteViews / RIPE RIS observation model.

A collector has a set of *peer* ASes that feed it their best route for each
prefix.  In the simulation the collector listens on the engine's
``on_change`` door from the moment it is built instead of modelling extra
sessions — what it sees is exactly the sequence of best-route changes at
each peer, timestamped, as they happen.

The convergence metrics implemented here mirror §5.2 of the paper: per-peer
convergence time is the span from a peer's first update after an event to
its last (a peer that updates once "converges instantly", i.e. 0 s), and
global convergence is the span from the first update seen at the collector
to the last across all peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.bgp.engine import BGPEngine, RouteChange
from repro.bgp.messages import ASPath
from repro.net.addr import Prefix


@dataclass(frozen=True)
class CollectorUpdate:
    """One update as seen at the collector."""

    time: float
    peer: int
    prefix: Prefix
    as_path: Optional[ASPath]  # None = withdrawal


@dataclass
class PeerConvergence:
    """Convergence summary for one peer after one routing event."""

    peer: int
    num_updates: int
    convergence_time: float
    final_path: Optional[ASPath]
    #: True if the peer's pre-event path traversed the poisoned/affected AS.
    was_affected: bool = False

    @property
    def instant(self) -> bool:
        """Converged with a single update (the paper's 'instant')."""
        return self.num_updates <= 1


class RouteCollector:
    """Observes best-route changes at a set of peer ASes.

    Attach it before the run it should observe: it hears the changes
    made from its construction on, and none before.
    """

    def __init__(self, engine: BGPEngine, peers: Iterable[int]) -> None:
        self.engine = engine
        self.peers: Set[int] = set(peers)
        unknown = self.peers - set(engine.speakers)
        if unknown:
            raise ValueError(f"collector peers not in topology: {unknown}")
        #: every Loc-RIB change since attachment, in order, at every AS:
        #: :meth:`updates` keeps the peers' ones, and loss replay
        #: (:class:`~repro.analysis.loss.ConvergenceLossReplay`) walks
        #: them all.
        self.changes: List[RouteChange] = []
        engine.on_change.append(self.changes.append)

    # ------------------------------------------------------------------
    # Raw update streams
    # ------------------------------------------------------------------
    def updates(
        self,
        prefix: Optional[Prefix] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[CollectorUpdate]:
        """Updates from collector peers, optionally filtered."""
        out: List[CollectorUpdate] = []
        for change in self.changes:
            if change.asn not in self.peers:
                continue
            if not since < change.time <= until:
                continue
            if prefix is not None and change.prefix != prefix:
                continue
            out.append(
                CollectorUpdate(
                    time=change.time,
                    peer=change.asn,
                    prefix=change.prefix,
                    as_path=change.new.as_path if change.new else None,
                )
            )
        return out

    def path_of(self, peer: int, prefix: Prefix) -> Optional[ASPath]:
        """The peer's current best path for *prefix*."""
        return self.engine.as_path(peer, prefix)

    def peers_using(self, prefix: Prefix, via: int) -> List[int]:
        """Collector peers whose current path traverses AS *via*."""
        out = []
        for peer in self.peers:
            path = self.engine.as_path(peer, prefix)
            if path is not None and via in path:
                out.append(peer)
        return sorted(out)

    # ------------------------------------------------------------------
    # Convergence analysis
    # ------------------------------------------------------------------
    def convergence_after(
        self,
        event_time: float,
        prefix: Prefix,
        affected: Optional[Set[int]] = None,
    ) -> List[PeerConvergence]:
        """Per-peer convergence records for the event at *event_time*.

        *affected* marks peers that had been routing through the AS the
        event concerns (supplied by the caller from pre-event paths).
        Peers with no updates at all are omitted — they were not perturbed.
        """
        affected = affected or set()
        by_peer: Dict[int, List[CollectorUpdate]] = {}
        for update in self.updates(prefix=prefix, since=event_time):
            by_peer.setdefault(update.peer, []).append(update)
        out: List[PeerConvergence] = []
        for peer, updates in sorted(by_peer.items()):
            times = [u.time for u in updates]
            out.append(
                PeerConvergence(
                    peer=peer,
                    num_updates=len(updates),
                    convergence_time=max(times) - min(times),
                    final_path=updates[-1].as_path,
                    was_affected=peer in affected,
                )
            )
        return out

    def global_convergence_time(
        self, event_time: float, prefix: Prefix
    ) -> Optional[float]:
        """Span from first to last collector update after *event_time*."""
        updates = self.updates(prefix=prefix, since=event_time)
        if not updates:
            return None
        times = [u.time for u in updates]
        return max(times) - min(times)


def summarize_convergence(
    records: Sequence[PeerConvergence],
) -> Dict[str, float]:
    """Aggregate stats used by the Fig. 6 benchmark."""
    if not records:
        return {
            "peers": 0,
            "instant_fraction": 1.0,
            "single_update_fraction": 1.0,
            "mean_convergence": 0.0,
        }
    instant = sum(1 for r in records if r.instant)
    return {
        "peers": len(records),
        "instant_fraction": instant / len(records),
        "single_update_fraction": (
            sum(1 for r in records if r.num_updates == 1) / len(records)
        ),
        "mean_convergence": (
            sum(r.convergence_time for r in records) / len(records)
        ),
    }
