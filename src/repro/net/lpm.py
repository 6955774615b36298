"""Compiled flat longest-prefix-match tables: *the* FIB lookup structure.

A FIB is written as a plain ``{prefix: next hop}`` map and read as an
interval table.  IPv4 prefixes form a laminar family (any two are nested
or disjoint), so the map flattens into a sorted table of half-open
address intervals, each carrying the value of its most specific covering
prefix.  Lookup is then one ``bisect`` on an int.
:class:`~repro.dataplane.fib.FibSnapshot` owns one values column per AS,
all over one shared :class:`PrefixAxis`, and answers every hop from them;
a consumer that follows one address through many tables bisects the
axis once and indexes each column with the slot it found.

A property test (tests/test_traffic_lpm.py) pins the flat table
byte-identical to a bit-by-bit trie oracle (``tests/trie_oracle.py``) built
by the test over fuzz-generated FIBs, including the ``0.0.0.0/0``
default-route entry that ``default_route_via_provider`` stubs install.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Mapping, Optional, Tuple, Union

from repro.net.addr import Address, Prefix, address_int

#: Exclusive upper bound of the IPv4 address space.
_ADDRESS_SPACE = 1 << 32

#: "No row for this prefix", where ``None`` could be a value.
_ABSENT = object()


class PrefixAxis:
    """The interval boundaries of a prefix *set*, shared by every table
    compiled over it.

    ``bases`` is the sorted list of interval starts covering [0, 2^32):
    every address where a prefix of the set opens or closes.  It is
    **unmerged** — a boundary stays even where a table carries one value
    across it — so it depends on the prefix set alone: every table over
    the set holds this one list by reference, and a changed row rewrites
    slots of a values column without moving a boundary.  ``covers[slot]``
    lists the prefixes covering that slot, innermost first;
    ``spans[prefix]`` is the prefix's half-open slot range.  Immutable.
    """

    __slots__ = ("bases", "covers", "spans")

    def __init__(self, prefixes: Iterable[Prefix]):
        entries = sorted(set(prefixes))
        # The laminar sweep, in address order: (end, cover) is where the
        # innermost open prefix ends and the nest open at the current
        # address; the stack holds the enclosing ones, "no prefix" at
        # the bottom.  A dict keeps the last edge at each address.
        edges = {0: ()}
        stack: List[Tuple[int, Tuple[Prefix, ...]]] = []
        end, cover = _ADDRESS_SPACE + 1, ()
        for prefix in entries:
            start, length = prefix
            while end <= start:
                closed = end
                end, cover = stack.pop()
                edges[closed] = cover
            stack.append((end, cover))
            end, cover = start + (1 << (32 - length)), (prefix,) + cover
            edges[start] = cover
        while stack:
            closed = end
            end, cover = stack.pop()
            if closed < _ADDRESS_SPACE:
                edges[closed] = cover
        self.bases = list(edges)
        self.covers = list(edges.values())
        #: In address order, an enclosing prefix before those inside it:
        #: painting a column in this order lays inner values over outer.
        self.spans = {
            prefix: (
                bisect_left(self.bases, prefix[0]),
                bisect_left(self.bases, prefix[0] + (1 << (32 - prefix[1]))),
            )
            for prefix in entries
        }

    def fresh_slots(self, older: "PrefixAxis") -> List[int]:
        """This axis's slots whose base *older* lacks, ascending.

        *older* must be an axis over a subset of this one's prefixes —
        an earlier axis of the same chain of refreshes — so its bases
        are a subset of these: each fresh slot splits one of its slots.
        """
        bases = self.bases
        fresh = sorted(set(bases).difference(older.bases))
        if len(bases) - len(fresh) != len(older.bases):
            raise ValueError("the older axis holds a base this one lacks")
        return [bisect_left(bases, base) for base in fresh]


class FlatLPM:
    """A prefix -> value map compiled to a column over a prefix axis.

    ``bases`` is the axis's sorted list of interval starts (shared, not
    copied); ``values[i]`` is the next hop for addresses in
    ``[bases[i], bases[i+1])`` — ``None`` where no prefix of the map
    covers the interval.  Lookup reads these two lists and nothing else.
    """

    __slots__ = ("axis", "bases", "values", "size")

    def __init__(
        self, axis: PrefixAxis, values: List[Optional[int]], size: int
    ):
        self.axis = axis
        self.bases = axis.bases
        self.values = values
        self.size = size

    @classmethod
    def compile(
        cls,
        fib: Mapping[Prefix, Optional[int]],
        axis: Optional[PrefixAxis] = None,
    ) -> "FlatLPM":
        """Flatten *fib* into a column over *axis*, which must hold
        every prefix of the map (without one, a private axis is built)."""
        if axis is None:
            axis = PrefixAxis(fib)
        values: List[Optional[int]] = [None] * len(axis.bases)
        painted = 0
        for prefix, (lo, hi) in axis.spans.items():
            value = fib.get(prefix, _ABSENT)
            if value is not _ABSENT:
                painted += 1
                values[lo:hi] = [value] * (hi - lo)
        if painted != len(fib):
            raise ValueError("the map holds a prefix outside its axis")
        return cls(axis, values, painted)

    def patched(
        self, fib: Mapping[Prefix, Optional[int]], rows: Iterable[Prefix]
    ) -> "FlatLPM":
        """The table of *fib* — this table's map but for *rows*, each
        changed, added or gone — on the same axis: a copied column with
        the slots under those rows re-read, innermost present prefix
        first, so a vanished row falls back to whatever still covers it
        (one gone before the axis ever held it has no slot to re-read)."""
        spans, covers = self.axis.spans, self.axis.covers
        values = self.values.copy()
        for prefix in rows:
            if prefix not in spans:
                if prefix in fib:
                    raise ValueError("a patched row lies outside the axis")
                continue
            for slot in range(*spans[prefix]):
                values[slot] = None
                for cover in covers[slot]:
                    value = fib.get(cover, _ABSENT)
                    if value is not _ABSENT:
                        values[slot] = value
                        break
        return FlatLPM(self.axis, values, len(fib))

    def recut(self, axis: PrefixAxis, fresh: Iterable[int]) -> "FlatLPM":
        """This table moved onto *axis*, a regrowth of its own, whose
        *fresh* slots (:meth:`PrefixAxis.fresh_slots`) it lacks.

        The map has no row for a prefix the old axis never held, so a
        fresh slot resolves as the slot it splits: a copied column with
        that value inserted at each fresh slot, in ascending order.
        """
        values = self.values.copy()
        for slot in fresh:
            values.insert(slot, values[slot - 1])
        return FlatLPM(axis, values, self.size)

    def resolve(self, address: Union[int, str, Address]) -> Optional[int]:
        """Next hop for *address*: the most specific covering prefix's."""
        value = address_int(address)
        return self.values[bisect_right(self.bases, value) - 1]

    def __len__(self) -> int:
        return self.size
