"""Per-AS FIB snapshots derived from the BGP engine's Loc-RIBs.

Each AS gets a plain ``{prefix: next hop}`` map (LOCAL for prefixes the
AS originates), filled straight from its Loc-RIB.  Lookups go through
the interval table (:class:`~repro.net.lpm.FlatLPM`) the snapshot
compiles from that map on first use.  The data plane resolves the
AS-level next hop to concrete routers with hot-potato egress selection
at forwarding time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Union

from repro.bgp.engine import BGPEngine
from repro.net.addr import Address, Prefix, address_int
from repro.net.lpm import FlatLPM
from repro.topology.relationships import Relationship

#: Sentinel next-hop meaning "this AS originates the prefix".
LOCAL = -1

#: The 0.0.0.0/0-equivalent entry default-routed ASes point at a provider.
DEFAULT_PREFIX = Prefix(0, 0)


@dataclass
class FibSnapshot:
    """Frozen forwarding state for the whole topology at one instant.

    Frozen means: once constructed, ``tables`` and ``origins`` are not
    edited — a control-plane change makes a new snapshot
    (:func:`build_fibs`), and a rebuilt AS gets a *new map object*.
    That is the whole invalidation rule for the compiled tables: new
    map object, new table; same map object, same table.
    """

    #: asn -> {prefix: next-hop asn (or LOCAL)}.
    tables: Dict[int, Dict[Prefix, int]] = field(default_factory=dict)
    #: prefix -> originating asn, for host-attachment decisions.
    origins: Dict[Prefix, int] = field(default_factory=dict)
    #: asn -> interval table compiled from ``tables[asn]`` on first use;
    #: build_fibs carries clean ASes' entries into the next snapshot.
    _flat: Dict[int, FlatLPM] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Interval table over ``origins`` (origin_for is per-probe).
    _origin_index: Optional[FlatLPM] = field(
        default=None, repr=False, compare=False
    )

    def flat(self, asn: int) -> Optional[FlatLPM]:
        """The compiled table for *asn* (None when it has no routes)."""
        table = self._flat.get(asn)
        if table is None:
            fib = self.tables.get(asn)
            if not fib:
                return None
            table = self._flat[asn] = FlatLPM.compile(fib)
        return table

    def next_hop_as(
        self, asn: int, destination: Union[int, str, Address]
    ) -> Optional[int]:
        """AS-level next hop at *asn* for *destination* (LOCAL, asn, None).

        An int *destination* is taken as an address value as it stands;
        the forwarding walk passes one per hop.
        """
        table = self._flat.get(asn)
        if table is None:
            table = self.flat(asn)
            if table is None:
                return None
        # FlatLPM.resolve, inlined: this runs once per router hop.
        destination = address_int(destination)
        return table.values[bisect_right(table.bases, destination) - 1]

    def origin_for(
        self, destination: Union[int, str, Address]
    ) -> Optional[int]:
        """The AS hosting *destination*, per most-specific originated
        prefix: one bisect into the index built with the snapshot."""
        index = self._origin_index
        if index is None:
            index = self._index_origins()
        return index.resolve(destination)

    def _index_origins(self, carried: Optional[FlatLPM] = None) -> FlatLPM:
        """Index ``origins`` (or adopt the *carried* index of a snapshot
        with equal origins).  Once per snapshot: ``build_fibs`` calls it
        when the snapshot is complete, a hand-built one on first use."""
        if carried is None:
            carried = FlatLPM.from_items(self.origins.items())
        self._origin_index = carried
        return carried


def _build_as_fib(
    asn: int, speaker, origins: Dict[Prefix, int]
) -> Dict[Prefix, int]:
    """One AS's Loc-RIB as a prefix -> next-hop map; locally-originated
    prefixes are recorded into *origins*."""
    fib: Dict[Prefix, int] = {}
    for prefix, route in speaker.table.best_routes():
        next_hop = route.neighbor
        if next_hop == asn:
            next_hop = LOCAL
            origins[prefix] = asn
        fib[prefix] = next_hop
    if speaker.policy.config.default_route_via_provider:
        providers = sorted(
            nbr
            for nbr, rel in speaker.neighbors.items()
            if rel is Relationship.PROVIDER
        )
        if providers:
            fib[DEFAULT_PREFIX] = providers[0]
    return fib


def build_fibs(
    engine: BGPEngine,
    previous: Optional[FibSnapshot] = None,
    dirty_asns: Optional[Set[int]] = None,
) -> FibSnapshot:
    """Snapshot every speaker's Loc-RIB into forwarding tables.

    ASes configured with ``default_route_via_provider`` additionally get
    a least-specific default entry pointing at their lowest-numbered
    provider: even when a poison (or outage) evicts the BGP route for a
    prefix, their packets still leave toward the provider — the measured
    behavior that makes "unreachable" stubs keep delivering traffic.

    With *previous* and *dirty_asns* (from
    :meth:`BGPEngine.consume_fib_dirty`), only the dirty ASes' maps are
    rebuilt; every other AS *shares its map object* — and the interval
    table already compiled from it — with the previous snapshot, and the
    origins index is shared too unless a dirty AS changed its claims.
    ``dirty_asns=None`` means the change set is unbounded — full rebuild.
    """
    if previous is not None and dirty_asns is not None:
        if not dirty_asns:
            return previous
        snapshot = FibSnapshot(tables=dict(previous.tables))
        # Keep clean ASes' origin claims; dirty ASes re-assert theirs.
        snapshot.origins = {
            prefix: asn
            for prefix, asn in previous.origins.items()
            if asn not in dirty_asns
        }
        snapshot._flat = {
            asn: table
            for asn, table in previous._flat.items()
            if asn not in dirty_asns
        }
        for asn in sorted(dirty_asns):
            speaker = engine.speakers.get(asn)
            if speaker is None:
                snapshot.tables.pop(asn, None)
                continue
            snapshot.tables[asn] = _build_as_fib(
                asn, speaker, snapshot.origins
            )
        snapshot._index_origins(
            previous._origin_index
            if snapshot.origins == previous.origins
            else None
        )
        return snapshot
    snapshot = FibSnapshot()
    for asn, speaker in engine.speakers.items():
        snapshot.tables[asn] = _build_as_fib(asn, speaker, snapshot.origins)
    snapshot._index_origins()
    return snapshot
