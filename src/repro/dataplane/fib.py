"""Per-AS FIB snapshots derived from the BGP engine's Loc-RIBs.

Each AS gets a plain ``{prefix: next hop}`` map (LOCAL for prefixes the
AS originates), filled straight from its Loc-RIB.  Lookups go through
the interval table (:class:`~repro.net.lpm.FlatLPM`) the snapshot
compiles from that map on first use.  The data plane resolves the
AS-level next hop to concrete routers with hot-potato egress selection
at forwarding time.  An incremental refresh appends the rows it moved
to a log its chain of snapshots shares, which is how a reader learns
what changed between two snapshots.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.bgp.engine import BGPEngine
from repro.net.addr import Address, Prefix, address_int
from repro.net.lpm import FlatLPM, PrefixAxis
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
    (:func:`build_fibs`), which logs the rows it moved in ``log``.
    """

    #: asn -> {prefix: next-hop asn (or LOCAL)}.
    tables: Dict[int, Dict[Prefix, int]] = field(default_factory=dict)
    #: prefix -> originating asn, for host-attachment decisions.
    origins: Dict[Prefix, int] = field(default_factory=dict)
    #: The refresh log, shared append-only by a chain of snapshots:
    #: ``(asn, prefix)`` for each row a refresh added, dropped or
    #: repointed, ``(None, prefix)`` for each prefix whose ``origins``
    #: claim moved.  A full build, or a build from a snapshot that is
    #: no longer the head of its log, starts a new one.
    log: List[Tuple[Optional[int], Prefix]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: ``len(log)`` when this snapshot was built: two snapshots on one
    #: log differ at most in the rows ``log`` names between their marks.
    upto: int = field(default=0, compare=False)
    #: Running totals over the incremental refreshes behind this
    #: snapshot: rows re-read, axes regrown for a never-seen prefix.
    rows_patched: int = field(default=0, compare=False)
    axis_regrown: int = field(default=0, compare=False)
    #: asn -> interval table compiled from ``tables[asn]`` on first use;
    #: build_fibs carries clean ASes' entries into the next snapshot.
    _flat: Dict[int, FlatLPM] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Interval table over ``origins`` (origin_for is per-probe).
    _origin_index: Optional[FlatLPM] = field(
        default=None, repr=False, compare=False
    )
    _axis: Optional[PrefixAxis] = field(
        default=None, repr=False, compare=False
    )

    @property
    def axis(self) -> PrefixAxis:
        """The one axis this snapshot's tables share: built on first
        use over every prefix in ``tables`` and ``origins``, then handed
        down (and regrown) by build_fibs."""
        if self._axis is None:
            prefixes = set().union(self.origins, *self.tables.values())
            self._axis = PrefixAxis(prefixes)
        return self._axis

    def _compile(self, fib: Mapping[Prefix, int]) -> FlatLPM:
        """*fib* as a column on :attr:`axis`."""
        return FlatLPM.compile(fib, self.axis)

    def flat(self, asn: int) -> Optional[FlatLPM]:
        """The compiled table for *asn* (None when it has no routes)."""
        table = self._flat.get(asn)
        if table is None:
            fib = self.tables.get(asn)
            if not fib:
                return None
            table = self._flat[asn] = self._compile(fib)
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
        prefix: one bisect into one more column on the axis."""
        if self._origin_index is None:
            self._origin_index = self._compile(self.origins)
        return self._origin_index.resolve(destination)

    def _carried(
        self,
        table: FlatLPM,
        fib: Mapping[Prefix, int],
        rows: Iterable[Prefix],
        fresh: Dict[PrefixAxis, List[int]],
    ) -> FlatLPM:
        """A predecessor's *table* brought to *fib*, of which *rows*
        moved: first re-cut onto this snapshot's axis if that has regrown
        under it (*fresh* holds each older axis's fresh slots, found once
        per refresh), then patched."""
        axis = self._axis
        if table.axis is not axis:
            slots = fresh.get(table.axis)
            if slots is None:
                slots = fresh[table.axis] = axis.fresh_slots(table.axis)
            table = table.recut(axis, slots)
        return table.patched(fib, rows)


def _next_hop(asn: int, route) -> int:
    """A Loc-RIB *route* of *asn* as a FIB value."""
    return LOCAL if route.neighbor == asn else route.neighbor


def _static_default(speaker) -> Optional[int]:
    """The provider a ``default_route_via_provider`` AS points 0.0.0.0/0
    at, overriding a BGP-learned /0 (None for every other AS)."""
    if not speaker.policy.config.default_route_via_provider:
        return None
    providers = [
        n for n, r in speaker.neighbors.items() if r is Relationship.PROVIDER
    ]
    return min(providers, default=None)


def _build_as_fib(asn: int, speaker) -> Dict[Prefix, int]:
    """One AS's Loc-RIB as a prefix -> next-hop map."""
    fib = {
        prefix: _next_hop(asn, route)
        for prefix, route in speaker.table.best_routes()
    }
    default = _static_default(speaker)
    if default is not None:
        fib[DEFAULT_PREFIX] = default
    return fib


def _row(asn: int, speaker, prefix: Prefix) -> Optional[int]:
    """What :func:`_build_as_fib` holds for *prefix* (None: no row)."""
    default = _static_default(speaker) if prefix == DEFAULT_PREFIX else None
    if default is not None:
        return default
    route = speaker.table.best(prefix)
    return None if route is None else _next_hop(asn, route)


def _claim(origins: Dict[Prefix, int], asn: int, prefix: Prefix) -> None:
    """Of several ASes with a LOCAL row the highest-numbered hosts."""
    if asn > origins.get(prefix, asn - 1):
        origins[prefix] = asn


def build_fibs(
    engine: BGPEngine,
    previous: Optional[FibSnapshot] = None,
    dirty_asns: Union[Mapping[int, Set[Prefix]], Set[int], None] = None,
) -> FibSnapshot:
    """Snapshot every speaker's Loc-RIB into forwarding tables.

    ASes configured with ``default_route_via_provider`` additionally get
    a least-specific default entry pointing at their lowest-numbered
    provider: even when a poison (or outage) evicts the BGP route for a
    prefix, their packets still leave toward the provider — the measured
    behavior that makes "unreachable" stubs keep delivering traffic.

    With *previous* and *dirty_asns* (:meth:`BGPEngine.consume_fib_dirty`:
    asn -> the prefixes whose next hop moved; a bare set of ASNs means
    every row of those ASes), only those rows are re-read into a copy of
    the dirty AS's map, and its table, if compiled, is patched under
    them — first re-cut onto the axis if a never-seen prefix regrew it.
    Every other AS keeps its map and compiled table, and ``origins`` is
    kept unless a row changed a LOCAL claim.  Each re-read row whose
    value moved, and each prefix whose claim moved, is appended to
    *previous*'s log (a new one if *previous* is not its head).
    ``dirty_asns=None`` means the change set is unbounded — full rebuild.
    """
    if previous is None or dirty_asns is None:
        snapshot = FibSnapshot()
        for asn, speaker in engine.speakers.items():
            fib = snapshot.tables[asn] = _build_as_fib(asn, speaker)
            for prefix, value in fib.items():
                if value == LOCAL:
                    _claim(snapshot.origins, asn, prefix)
        return snapshot
    if not dirty_asns:
        return previous
    log = previous.log if len(previous.log) == previous.upto else []
    snapshot = replace(
        previous,
        tables=dict(previous.tables),
        _flat=dict(previous._flat),
        log=log,
    )
    tables, axis = snapshot.tables, previous._axis
    named = isinstance(dirty_asns, Mapping)
    contested: Set[Prefix] = set()  # a LOCAL claim came or went
    newcomers: Set[Prefix] = set()  # rows the axis has no slot for
    compiled = {}  # dirty asn -> (its old table, its moved rows)
    for asn in dirty_asns:
        old = tables.get(asn) or {}
        table = snapshot._flat.pop(asn, None)
        speaker = engine.speakers.get(asn)
        if speaker is None:
            tables.pop(asn, None)
            log.extend((asn, prefix) for prefix in old)
            contested.update(p for p, v in old.items() if v == LOCAL)
            continue
        # A prefix with rows but no selection has no FIB row, so the
        # Loc-RIB's prefixes are every row there can be.
        rows = dirty_asns[asn] if named else (
            old.keys()
            | speaker.table.best_routes().mapping.keys()
            | {DEFAULT_PREFIX}
        )
        fib = tables[asn] = dict(old)
        for prefix in rows:
            value = _row(asn, speaker, prefix)
            if value is None:
                was = fib.pop(prefix, None)
            else:
                was, fib[prefix] = fib.get(prefix), value
                if axis is not None and prefix not in axis.spans:
                    newcomers.add(prefix)
            if was != value:
                log.append((asn, prefix))
                if (was == LOCAL) != (value == LOCAL):
                    contested.add(prefix)
        snapshot.rows_patched += len(rows)
        if table is not None and fib:
            compiled[asn] = table, rows
    if newcomers:
        snapshot._axis = PrefixAxis(axis.spans.keys() | newcomers)
        snapshot.axis_regrown += 1
    fresh: Dict[PrefixAxis, List[int]] = {}
    for asn, (table, rows) in compiled.items():
        snapshot._flat[asn] = snapshot._carried(
            table, tables[asn], rows, fresh
        )
    if contested:
        origins = snapshot.origins = dict(previous.origins)
        for prefix in contested:
            was = origins.pop(prefix, None)
            for asn, fib in tables.items():
                if fib.get(prefix) == LOCAL:
                    _claim(origins, asn, prefix)
            if origins.get(prefix) != was:
                log.append((None, prefix))
        if previous._origin_index is not None:
            snapshot._origin_index = snapshot._carried(
                previous._origin_index, origins, contested, fresh
            )
    snapshot.upto = len(log)
    return snapshot
