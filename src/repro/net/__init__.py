"""Low-level networking primitives: addresses, prefixes, the
interval-table LPM, probes.

This package is deliberately free of any simulation logic; it provides the
value types the rest of the library is built on.
"""

from repro.net.addr import Address, Prefix
from repro.net.lpm import FlatLPM
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TTL_EXCEEDED,
    Probe,
    ProbeKind,
    ProbeReply,
)

__all__ = [
    "Address",
    "FlatLPM",
    "Prefix",
    "Probe",
    "ProbeKind",
    "ProbeReply",
    "ICMP_ECHO_REQUEST",
    "ICMP_ECHO_REPLY",
    "ICMP_TTL_EXCEEDED",
]
