"""Low-level networking primitives: addresses, prefixes and the
interval-table LPM.

This package is deliberately free of any simulation logic; it provides the
value types the rest of the library is built on.
"""

from repro.net.addr import Address, Prefix
from repro.net.lpm import FlatLPM

__all__ = [
    "Address",
    "FlatLPM",
    "Prefix",
]
