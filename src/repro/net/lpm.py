"""Compiled flat longest-prefix-match tables: *the* FIB lookup structure.

A FIB is written as a plain ``{prefix: next hop}`` map and read as an
interval table.  IPv4 prefixes form a laminar family (any two are nested
or disjoint), so the map flattens into a sorted table of half-open
address intervals, each carrying the value of its most specific covering
prefix.  Lookup is then one ``bisect`` on an int — or one vectorised
``searchsorted`` for a whole batch when numpy is available.
:class:`~repro.dataplane.fib.FibSnapshot` owns one compiled table per AS
and answers every probe hop from it.

A property test (tests/test_traffic_lpm.py) pins the flat table
byte-identical to a bit-by-bit trie oracle (:mod:`repro.net.trie`) built
by the test over fuzz-generated FIBs, including the ``0.0.0.0/0``
default-route entry that ``default_route_via_provider`` stubs install.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.net.addr import Address, Prefix, address_int

try:  # pragma: no cover - exercised indirectly via the env toggle
    import numpy as _np
except Exception:  # pragma: no cover - numpy is optional
    _np = None

#: Exclusive upper bound of the IPv4 address space.
_ADDRESS_SPACE = 1 << 32

#: Palette sentinel for "no covering prefix" in the numpy fast path.
_NO_ROUTE = -(1 << 62)


def _numpy_enabled() -> bool:
    """Whether the vectorised batch path is available and not disabled."""
    if _np is None:
        return False
    return os.environ.get("REPRO_TRAFFIC_NUMPY", "1") != "0"


class FlatLPM:
    """A prefix -> value map compiled to a sorted interval table.

    ``bases`` is a sorted list of interval starts covering [0, 2^32);
    ``values[i]`` is the next hop for addresses in
    ``[bases[i], bases[i+1])`` — ``None`` where no prefix covers the
    interval.  Compilation is a single stack sweep over the entries
    sorted by (base, length): entering a prefix opens an interval with
    its value, leaving it restores the enclosing prefix's value.
    """

    __slots__ = ("bases", "values", "size", "_np_bases", "_np_values")

    def __init__(
        self, bases: List[int], values: List[Optional[int]], size: int
    ):
        self.bases = bases
        self.values = values
        self.size = size
        self._np_bases = None
        self._np_values = None

    @classmethod
    def compile(cls, fib: Mapping[Prefix, Optional[int]]) -> "FlatLPM":
        """Flatten *fib* (anything with ``.items()``) into a table."""
        return cls.from_items(fib.items())

    @classmethod
    def from_items(
        cls, items: Iterable[Tuple[Prefix, Optional[int]]]
    ) -> "FlatLPM":
        """Flatten (prefix, value) pairs, one per distinct prefix."""
        # Int triples read off the slots: property calls were half the
        # cost, and a repair step compiles dozens of 250-entry tables.
        entries = sorted(
            [(prefix._base, prefix._length, value) for prefix, value in items]
        )
        # Sweep out every (address, value from there on) edge in address
        # order: (end, value) is the innermost open prefix, the stack
        # holds the ones around it with "no prefix" at the bottom.
        edges: List[Tuple[int, Optional[int]]] = []
        stack: List[Tuple[int, Optional[int]]] = []
        end, value = _ADDRESS_SPACE + 1, None
        for start, length, entered in entries:
            while end <= start:
                closed = end
                end, value = stack.pop()
                edges.append((closed, value))
            edges.append((start, entered))
            stack.append((end, value))
            end, value = start + (1 << (32 - length)), entered
        while stack:
            closed = end
            end, value = stack.pop()
            if closed < _ADDRESS_SPACE:
                edges.append((closed, value))
        # Merge: last edge at an address wins, no change is no boundary.
        bases: List[int] = [0]
        values: List[Optional[int]] = [None]
        for base, value in edges:
            if bases[-1] == base:
                values[-1] = value
            elif values[-1] != value:
                bases.append(base)
                values.append(value)
        return cls(bases, values, len(entries))

    def resolve(self, address: Union[int, str, Address]) -> Optional[int]:
        """Next hop for *address*: the most specific covering prefix's."""
        value = address_int(address)
        return self.values[bisect_right(self.bases, value) - 1]

    def resolve_many(
        self, addresses: Sequence[Union[int, str, Address]]
    ) -> List[Optional[int]]:
        """Batch-resolve *addresses*; one bisect (or searchsorted) each."""
        ints = [
            a if type(a) is int else Address(a).value  # noqa: E721
            for a in addresses
        ]
        if _numpy_enabled() and len(ints) >= 32:
            return self._resolve_many_numpy(ints)
        bases = self.bases
        values = self.values
        return [values[bisect_right(bases, a) - 1] for a in ints]

    def _resolve_many_numpy(self, ints: List[int]) -> List[Optional[int]]:
        if self._np_bases is None:
            self._np_bases = _np.asarray(self.bases, dtype=_np.int64)
            self._np_values = _np.asarray(
                [_NO_ROUTE if v is None else v for v in self.values],
                dtype=_np.int64,
            )
        addrs = _np.asarray(ints, dtype=_np.int64)
        idx = _np.searchsorted(self._np_bases, addrs, side="right") - 1
        hits = self._np_values[idx].tolist()
        return [None if v == _NO_ROUTE else v for v in hits]

    def __len__(self) -> int:
        return self.size

    def intervals(self) -> List[Tuple[int, Optional[int]]]:
        """The (base, value) boundary list, for inspection and tests."""
        return list(zip(self.bases, self.values))
