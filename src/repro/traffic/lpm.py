"""A :class:`FlatFibSet` view over a FIB snapshot's compiled tables.

The interval-table LPM itself lives in :mod:`repro.net.lpm` and each
:class:`~repro.dataplane.fib.FibSnapshot` owns the tables compiled from
its per-AS maps; :class:`FlatLPM` is re-exported here for the traffic layer's
callers.  The view adds what a long-lived batch consumer (the impact
ledger, the repair-ladder bench) needs on top: re-pointing at each new
snapshot and counting how many compiled tables the move invalidated.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.net.lpm import FlatLPM

__all__ = ["FlatFibSet", "FlatLPM"]


class FlatFibSet:
    """The compiled flat tables of whichever snapshot is attached.

    Tables are compiled and memoised by the snapshot (``fibs.flat``),
    keyed on each AS's *map object*: incremental FIB refreshes
    (``build_fibs(..., dirty_asns=...)``) carry clean ASes' maps and
    tables over by identity, so after :meth:`attach` only the ASes whose
    map was actually rebuilt compile again.
    """

    def __init__(self, fibs: Any = None) -> None:
        self._fibs = fibs
        #: asn -> the FIB map behind the table this view last handed
        #: out; ``attach`` compares it by identity.
        self._sources: Dict[int, Any] = {}
        #: handed-out tables that attach() found stale because their
        #: AS's map changed (regression instrumentation: unchanged ASes
        #: must not churn).
        self.invalidations = 0

    def attach(self, fibs: Any) -> None:
        """Point at *fibs*, counting the ASes whose map changed."""
        if fibs is self._fibs:
            return
        new_tables = fibs.tables if fibs is not None else {}
        for asn, source in list(self._sources.items()):
            if source is not new_tables.get(asn):
                del self._sources[asn]
                self.invalidations += 1
        self._fibs = fibs

    def table(self, asn: int) -> Optional[FlatLPM]:
        """The compiled table for *asn* (None when the AS has no FIB)."""
        if self._fibs is None:
            return None
        table = self._fibs.flat(asn)
        if table is not None:
            self._sources[asn] = self._fibs.tables[asn]
        return table
