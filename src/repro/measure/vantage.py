"""Vantage points: the PlanetLab-host role in the deployment.

Vantage points carry a health bit: the real deployment's PlanetLab nodes
crashed regularly (§5.2), and the controller *knows* when its own
measurement daemon stops reporting — so liveness is tracked state, not
something inferred from probe loss.  The fault injector drives
:meth:`VantageSet.mark_down` / :meth:`VantageSet.mark_up`; the monitor and
isolator consult :meth:`VantageSet.is_up` to avoid misreading a dead
vantage point as a dead Internet path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set

from repro.errors import MeasurementError
from repro.net.addr import Address
from repro.topology.routers import RouterTopology


@dataclass(frozen=True)
class VantagePoint:
    """A measurement host attached to a router."""

    name: str
    rid: str

    def address(self, topo: RouterTopology) -> Address:
        return topo.router(self.rid).address


class VantageSet:
    """The deployment's set of vantage points."""

    def __init__(self, topo: RouterTopology) -> None:
        self.topo = topo
        self._by_name: Dict[str, VantagePoint] = {}
        self._down: Set[str] = set()

    def add(self, name: str, rid: str) -> VantagePoint:
        """Register a vantage point at router *rid*."""
        if name in self._by_name:
            raise MeasurementError(f"vantage point {name!r} already exists")
        self.topo.router(rid)  # validates the router exists
        vp = VantagePoint(name=name, rid=rid)
        self._by_name[name] = vp
        return vp

    def get(self, name: str) -> VantagePoint:
        try:
            return self._by_name[name]
        except KeyError:
            raise MeasurementError(
                f"unknown vantage point {name!r}", vp=name
            )

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def mark_down(self, name: str) -> None:
        """Record that *name*'s measurement host stopped responding."""
        self.get(name)  # validates
        self._down.add(name)

    def mark_up(self, name: str) -> None:
        """Record that *name* came back."""
        self._down.discard(name)

    def is_up(self, name: str) -> bool:
        return name not in self._down

    def live(self) -> List[VantagePoint]:
        """All vantage points currently up."""
        return [vp for vp in self._by_name.values() if self.is_up(vp.name)]

    def live_others(self, name: str) -> List[VantagePoint]:
        """Live vantage points other than *name* (the usable helper pool)."""
        return [
            vp
            for vp in self._by_name.values()
            if vp.name != name and self.is_up(vp.name)
        ]

    def __iter__(self) -> Iterator[VantagePoint]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        return list(self._by_name)

    def others(self, name: str) -> List[VantagePoint]:
        """All vantage points except *name* (the spoof-helper pool)."""
        return [vp for vp in self._by_name.values() if vp.name != name]
