"""BGP update messages and AS-path helpers.

AS paths are plain tuples of ASNs, leftmost = most recently traversed AS
(the announcing neighbor).  Poisoning and prepending are just particular
path constructions performed by the origin; :func:`make_path` builds them.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, NamedTuple, Tuple

from repro.errors import BGPError
from repro.net.addr import Prefix

ASPath = Tuple[int, ...]

#: Bound on the path intern table.  Propagation revisits the same few
#: thousand distinct paths millions of times; interning makes equality
#: checks pointer-fast and dedupes pickled snapshots.  Past the bound new
#: paths are passed through uninterned (correctness never depends on
#: identity), so a pathological workload cannot grow the table unbounded.
_INTERN_LIMIT = 1 << 16

_interned_paths: dict = {}


def intern_path(path: ASPath) -> ASPath:
    """A canonical instance of *path* (bounded, per-process)."""
    cached = _interned_paths.get(path)
    if cached is not None:
        return cached
    if len(_interned_paths) < _INTERN_LIMIT:
        _interned_paths[path] = path
    return path


def clear_interned_paths() -> None:
    """Reset the intern table (see :meth:`BGPEngine.reseed`).

    Pickling preserves object sharing, so results that share interned
    tuples with *earlier* work serialize differently than the same
    values built in a fresh process.  Clearing at trial boundaries keeps
    sharing within-trial only, making serial and multiprocess runs
    byte-identical.
    """
    _interned_paths.clear()


def make_path(
    origin: int,
    prepend: int = 1,
    poison: Iterable[int] = (),
) -> ASPath:
    """Build the path an origin AS announces for its own prefix.

    ``prepend=3`` yields ``O-O-O``; ``poison=[A]`` yields ``O-A-O`` (the
    poisoned ASes are sandwiched so the path still begins and ends with the
    origin — neighbors need O as the next hop, and registries list O as the
    origin).  Combining both inserts the poison before the trailing origin:
    ``prepend=3, poison=[A]`` gives ``O-O-A-O``, keeping length equal to the
    baseline ``O-O-O`` plus one, or callers may keep lengths identical by
    announcing baseline ``O-O-O`` and poisoned ``O-A-O`` (the paper's
    choice, both length 3).
    """
    if prepend < 1:
        raise BGPError("prepend count must be >= 1")
    poison_list = list(poison)
    if origin in poison_list:
        raise BGPError("an origin cannot poison itself")
    if not poison_list:
        return (origin,) * prepend
    head = (origin,) * max(1, prepend - 1)
    return head + tuple(poison_list) + (origin,)


def traversed_ases(path: ASPath, origin: int) -> Tuple[int, ...]:
    """The ASes traffic actually crosses before reaching *origin*.

    A poisoned announcement like ``(B, O, A, O)`` contains the poisoned AS
    *A* in its tail even though no packet ever visits A; forwarding follows
    the path only until the first occurrence of the origin.  This helper
    strips the synthetic tail so "does this route avoid A?" questions are
    answered about real hops.
    """
    out = []
    for hop in path:
        if hop == origin:
            break
        out.append(hop)
    return tuple(out)


def unique_ases(path: ASPath) -> Tuple[int, ...]:
    """The path with consecutive duplicates collapsed (prepends removed)."""
    out = []
    for hop in path:
        if not out or out[-1] != hop:
            out.append(hop)
    return tuple(out)


class _AnnouncementFields(NamedTuple):
    """:class:`Announcement`'s fields; its path check needs a ``__new__``,
    which a NamedTuple body may not define."""

    prefix: Prefix
    as_path: ASPath
    med: int
    communities: FrozenSet[Tuple[int, int]]
    avoid: FrozenSet[int]


class Announcement(_AnnouncementFields):
    """A reachability announcement for *prefix* with attributes.

    ``as_path[0]`` is the ASN of the speaker that sent this announcement.
    ``med`` is the multi-exit discriminator (lower preferred, compared only
    between routes from the same neighbor AS).  ``communities`` carries
    opaque (asn, value) tags.

    ``avoid`` implements the paper's *hypothetical* signed primitive
    AVOID_PROBLEM(X, P) (§3): a transitive hint from the origin that the
    listed ASes are not correctly forwarding traffic for this prefix.
    Speakers that honour it prefer any route avoiding those ASes but may
    still use a tainted route if it is all they have (the Backup
    Property).  Today's BGP has no such attribute — LIFEGUARD
    approximates it with poisoning — but the simulator supports it so the
    approximation can be compared against the ideal.

    A tuple value, as are :class:`Withdrawal` and
    :class:`~repro.bgp.rib.Route`: the event engine builds one per
    decision change and compares one per flushed session, and both are
    C-level tuple operations (``==`` stops at the interned path's
    identity).
    """

    __slots__ = ()

    def __new__(cls, prefix, as_path, med=0, communities=frozenset(),
                avoid=frozenset()):
        if not as_path:
            raise BGPError("announcement needs a non-empty AS path")
        return tuple.__new__(
            cls, (prefix, as_path, med, communities, avoid)
        )

    @property
    def sender(self) -> int:
        """The neighbor ASN this update arrived from."""
        return self.as_path[0]

    @property
    def origin(self) -> int:
        """The AS that originated the route (rightmost ASN)."""
        return self.as_path[-1]


class Withdrawal(NamedTuple):
    """Withdraws reachability of *prefix* via the sending neighbor."""

    prefix: Prefix
    sender: int
