"""The reachability horizon (§4.1.2, "Prune candidate failure locations").

For a reverse-path failure, LIFEGUARD walks a historical reverse path from
the destination back to the source and classifies each hop: can it still
reach the source (round-trip ping works)?  does it respond to *other*
vantage points (so the router is alive, only its path to the source is
gone)?  or is it silent everywhere (possibly configured silent — consult
the responsiveness database)?  The horizon separates the hops that can
reach the source from those that cannot; the first hop past the horizon
lost its route and is the prime suspect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dataplane.probes import Prober
from repro.measure.responsiveness import ResponsivenessDB
from repro.net.addr import Address


class HopStatus(enum.Enum):
    """What probing one historical hop revealed."""

    REACHES_SOURCE = "reaches-source"
    #: answers other vantage points but not the source: its other outgoing
    #: paths work, only the path to the source is broken.
    ALIVE_ELSEWHERE = "alive-elsewhere"
    SILENT = "silent"
    #: configured to ignore ICMP; silence carries no information.
    EXCLUDED = "excluded"


@dataclass
class HopVerdict:
    """Status of one hop on the tested path."""

    address: Address
    asn: Optional[int]
    status: HopStatus


@dataclass
class HorizonResult:
    """Outcome of testing one historical reverse path.

    ``verdicts`` is ordered destination-side first (the direction the
    traffic travels is destination -> source).  ``suspect`` is the first
    informative hop past the horizon — the hop nearest the source that can
    no longer reach it.
    """

    verdicts: List[HopVerdict] = field(default_factory=list)
    suspect: Optional[HopVerdict] = None
    #: the last hop (nearest the destination) that still reaches the source.
    last_reaching: Optional[HopVerdict] = None
    probes_used: int = 0


class ReachabilityHorizon:
    """Probes historical paths and locates the horizon."""

    def __init__(
        self,
        prober: Prober,
        responsiveness: Optional[ResponsivenessDB] = None,
    ) -> None:
        self.prober = prober
        self.responsiveness = responsiveness or ResponsivenessDB()

    def _asn_of(self, address: Address) -> Optional[int]:
        topo = self.prober.dataplane.topo
        router = topo.router_by_address(address)
        if router is not None:
            return router.asn
        return self.prober.dataplane.fibs.origin_for(address)

    def probe_hop(
        self,
        source_rid: str,
        hop: Address,
        helper_rids: Sequence[str],
    ) -> HopVerdict:
        """Classify one hop relative to the source."""
        if self.responsiveness.configured_silent(hop):
            return HopVerdict(hop, self._asn_of(hop), HopStatus.EXCLUDED)
        if self.prober.ping(source_rid, hop).success:
            return HopVerdict(
                hop, self._asn_of(hop), HopStatus.REACHES_SOURCE
            )
        for helper in helper_rids:
            if self.prober.ping(helper, hop).success:
                return HopVerdict(
                    hop, self._asn_of(hop), HopStatus.ALIVE_ELSEWHERE
                )
        return HopVerdict(hop, self._asn_of(hop), HopStatus.SILENT)

    def test_path(
        self,
        source_rid: str,
        reverse_hops: Sequence[Address],
        helper_rids: Sequence[str] = (),
        skip_source_as: Optional[int] = None,
    ) -> HorizonResult:
        """Test a destination->source hop sequence for the horizon.

        ``reverse_hops`` runs from the destination side toward the source
        (atlas reverse paths are stored in travel order).  Hops inside the
        source's own AS are skipped when *skip_source_as* is given: they
        trivially reach the source and would mask the horizon.
        """
        before = self.prober.probes_sent
        result = HorizonResult()
        for hop in reverse_hops:
            asn = self._asn_of(hop)
            if skip_source_as is not None and asn == skip_source_as:
                continue
            verdict = self.probe_hop(source_rid, hop, helper_rids)
            result.verdicts.append(verdict)
        # Scan from the source side (end of the list) toward the
        # destination: the first informative non-reaching hop after the
        # reaching region is the suspect.
        suspect: Optional[HopVerdict] = None
        last_reaching: Optional[HopVerdict] = None
        for verdict in reversed(result.verdicts):
            if verdict.status is HopStatus.EXCLUDED:
                continue
            if verdict.status is HopStatus.REACHES_SOURCE:
                last_reaching = verdict
                continue
            suspect = verdict
            break
        result.suspect = suspect
        result.last_reaching = last_reaching
        result.probes_used = self.prober.probes_sent - before
        return result
