"""Low-level networking primitives: addresses, prefixes, the
interval-table LPM, the trie kept as its test oracle, probes.

This package is deliberately free of any simulation logic; it provides the
value types the rest of the library is built on.
"""

from repro.net.addr import Address, Prefix
from repro.net.lpm import FlatLPM
from repro.net.trie import PrefixTrie
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
    "PrefixTrie",
    "Probe",
    "ProbeKind",
    "ProbeReply",
    "ICMP_ECHO_REQUEST",
    "ICMP_ECHO_REPLY",
    "ICMP_TTL_EXCEEDED",
]
