"""Probe datatypes exchanged across the simulated data plane.

The simulation does not model byte-level packets; a probe is the tuple of
fields the forwarding walk and the measurement tools care about: real source
(who physically emitted it), claimed source (what the IP header says — these
differ for spoofed probes), destination, TTL, and probe kind.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.net.addr import Address

ICMP_ECHO_REQUEST = "echo-request"
ICMP_ECHO_REPLY = "echo-reply"
ICMP_TTL_EXCEEDED = "ttl-exceeded"

_probe_ids = itertools.count(1)


class ProbeKind(enum.Enum):
    """What measurement primitive a probe implements."""

    PING = "ping"
    TRACEROUTE = "traceroute"
    RECORD_ROUTE = "record-route"
    TIMESTAMP = "timestamp"


@dataclass(frozen=True)
class Probe:
    """A single probe packet entering the data plane.

    ``claimed_source`` is what receivers (and reverse paths) see; it equals
    ``real_source`` except when spoofing.  ``ttl`` limits the forwarding walk
    (traceroute sends a series of probes with increasing TTLs).
    """

    real_source: Address
    destination: Address
    claimed_source: Optional[Address] = None
    ttl: int = 64
    kind: ProbeKind = ProbeKind.PING
    probe_id: int = field(default_factory=lambda: next(_probe_ids))

    def __post_init__(self) -> None:
        if self.claimed_source is None:
            object.__setattr__(self, "claimed_source", self.real_source)

    @property
    def spoofed(self) -> bool:
        """True when the header source differs from the real sender."""
        return self.claimed_source != self.real_source


@dataclass(frozen=True)
class ProbeReply:
    """The observable outcome of a probe.

    ``received_by`` is the address whose owner actually got the reply — for a
    spoofed probe that is the claimed source, not the sender.  ``responder``
    is the router that answered (the destination for echo replies, an
    intermediate hop for TTL-exceeded).  ``recorded_route`` carries the
    record-route option contents when the probe requested them.
    """

    probe_id: int
    icmp_type: str
    responder: Address
    received_by: Address
    recorded_route: Tuple[Address, ...] = ()
