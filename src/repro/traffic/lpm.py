"""A :class:`FlatFibSet` view over a FIB snapshot's compiled tables.

The interval-table LPM itself lives in :mod:`repro.net.lpm` and each
:class:`~repro.dataplane.fib.FibSnapshot` owns the tables compiled from
its per-AS maps; :class:`FlatLPM` is re-exported here for the traffic layer's
callers.  The view re-points at each new snapshot and hands out its
tables.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.lpm import FlatLPM

__all__ = ["FlatFibSet", "FlatLPM"]


class FlatFibSet:
    """The compiled flat tables of whichever snapshot is attached.

    Tables are compiled and memoised by the snapshot (``fibs.flat``);
    incremental FIB refreshes (``build_fibs(..., dirty_asns=...)``)
    carry clean ASes' tables over, so after :meth:`attach` only the
    dirty ASes compile again.
    """

    def __init__(self, fibs: Any = None) -> None:
        self._fibs = fibs

    def attach(self, fibs: Any) -> None:
        """Point at *fibs*."""
        self._fibs = fibs

    def table(self, asn: int) -> Optional[FlatLPM]:
        """The compiled table for *asn* (None when the AS has no FIB)."""
        if self._fibs is None:
            return None
        return self._fibs.flat(asn)
