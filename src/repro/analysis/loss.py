"""Packet loss during BGP convergence, by control-plane replay (§5.2).

A route collector records every Loc-RIB change with its timestamp
(:attr:`~repro.bgp.collectors.RouteCollector.changes`).  Replaying those
changes yields the AS-level forwarding state at any instant during
convergence; walking test sources toward the origin at 10-second sample
points (the cadence of the paper's ping experiment) classifies each
(sample, source) as delivered, blackholed (some AS transiently lacks a
route) or looping (transiently inconsistent FIBs).  Loss rate per bin is
the fraction of sources that failed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.engine import RouteChange
from repro.net.addr import Prefix

_MAX_AS_HOPS = 64


@dataclass
class LossSample:
    """Loss measured over one 10-second sample round."""

    time: float
    sources: int
    lost: int

    @property
    def loss_rate(self) -> float:
        return self.lost / self.sources if self.sources else 0.0


class ConvergenceLossReplay:
    """Replays recorded Loc-RIB changes to measure transient loss for one
    prefix.  *changes* must cover every AS from before the prefix was
    first announced (a collector attached before the run records that)."""

    def __init__(
        self, changes: Iterable[RouteChange], prefix: Prefix
    ) -> None:
        self.prefix = prefix
        #: per-AS sorted (time, next_hop_asn or None); next_hop == asn
        #: marks local delivery (the origin).
        self._timeline: Dict[int, List[Tuple[float, Optional[int]]]] = {}
        for change in changes:
            if change.prefix != prefix:
                continue
            next_hop = change.new.neighbor if change.new else None
            self._timeline.setdefault(change.asn, []).append(
                (change.time, next_hop)
            )

    def next_hop_at(self, asn: int, time: float) -> Optional[int]:
        """The AS-level next hop installed at *asn* at *time*."""
        timeline = self._timeline.get(asn)
        if not timeline:
            return None
        index = bisect.bisect_right(timeline, (time, float("inf"))) - 1
        if index < 0:
            return None
        return timeline[index][1]

    def delivery_outcome(self, source: int, time: float) -> str:
        """'delivered', 'blackhole' or 'loop' for *source* at *time*."""
        current = source
        seen = {current}
        for _ in range(_MAX_AS_HOPS):
            next_hop = self.next_hop_at(current, time)
            if next_hop is None:
                return "blackhole"
            if next_hop == current:
                return "delivered"
            if next_hop in seen:
                return "loop"
            seen.add(next_hop)
            current = next_hop
        return "loop"

    def loss_timeline(
        self,
        sources: Sequence[int],
        start: float,
        end: float,
        step: float = 10.0,
    ) -> List[LossSample]:
        """Sampled loss rates across [start, end]."""
        samples: List[LossSample] = []
        time = start
        while time <= end + 1e-9:
            lost = sum(
                1
                for source in sources
                if self.delivery_outcome(source, time) != "delivered"
            )
            samples.append(
                LossSample(time=time, sources=len(sources), lost=lost)
            )
            time += step
        return samples

    def overall_loss_rate(
        self,
        sources: Sequence[int],
        start: float,
        end: float,
        step: float = 10.0,
        exclude_cut_off: bool = True,
    ) -> float:
        """Fraction of (sample, source) probes lost across the window.

        With *exclude_cut_off*, sources with no route at the *end* of the
        window (they were cut off by the poison, not transiently) are
        excluded, matching the paper's filtering.
        """
        usable = list(sources)
        if exclude_cut_off:
            usable = [
                s
                for s in usable
                if self.delivery_outcome(s, end) == "delivered"
            ]
        if not usable:
            return 0.0
        samples = self.loss_timeline(usable, start, end, step)
        total = sum(s.sources for s in samples)
        lost = sum(s.lost for s in samples)
        return lost / total if total else 0.0

    def max_bin_loss_rate(
        self,
        sources: Sequence[int],
        start: float,
        end: float,
        step: float = 10.0,
    ) -> float:
        """The worst single sample round (the paper's loss 'spikes')."""
        usable = [
            s
            for s in sources
            if self.delivery_outcome(s, end) == "delivered"
        ]
        if not usable:
            return 0.0
        samples = self.loss_timeline(usable, start, end, step)
        return max(s.loss_rate for s in samples)
