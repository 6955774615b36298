"""Compiled flat longest-prefix-match tables: *the* FIB lookup structure.

A :class:`~repro.net.trie.PrefixTrie` walks up to 32 Python nodes per
lookup.  IPv4 prefixes form a laminar family (any two are nested or
disjoint), so a trie flattens into a sorted table of half-open address
intervals, each carrying the value of its most specific covering
prefix.  Lookup is then one ``bisect`` on an int — or one vectorised
``searchsorted`` for a whole batch when numpy is available.  The trie
stays the build-time structure (insert/remove/exact) and the oracle the
tests compare against; :class:`~repro.dataplane.fib.FibSnapshot` owns
one compiled table per AS and answers every probe hop from it.

A property test (tests/test_traffic_lpm.py) pins the flat table
byte-identical to ``PrefixTrie.lookup`` over fuzz-generated FIBs,
including the ``0.0.0.0/0`` default-route entry that
``default_route_via_provider`` stubs install.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.net.addr import Address, Prefix, address_int
from repro.net.trie import PrefixTrie

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
    """A PrefixTrie compiled to a sorted interval table.

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
    def compile(cls, trie: PrefixTrie) -> "FlatLPM":
        """Flatten *trie* into an interval table."""
        return cls.from_items(trie.items())

    @classmethod
    def from_items(
        cls, items: Iterable[Tuple[Prefix, Optional[int]]]
    ) -> "FlatLPM":
        """Flatten (prefix, value) pairs, one per distinct prefix."""
        entries = sorted(
            items, key=lambda kv: (kv[0].base, kv[0].length)
        )
        bases: List[int] = [0]
        values: List[Optional[int]] = [None]

        def emit(base: int, value: Optional[int]) -> None:
            if base >= _ADDRESS_SPACE:
                return
            if bases[-1] == base:
                values[-1] = value
            elif values[-1] != value:
                bases.append(base)
                values.append(value)

        # Stack of (end_exclusive, value) for the prefixes currently open.
        stack: List[Tuple[int, Optional[int]]] = []
        for prefix, value in entries:
            start = prefix.base
            end = start + prefix.num_addresses
            while stack and stack[-1][0] <= start:
                closed_end, _ = stack.pop()
                emit(closed_end, stack[-1][1] if stack else None)
            emit(start, value)
            stack.append((end, value))
        while stack:
            closed_end, _ = stack.pop()
            emit(closed_end, stack[-1][1] if stack else None)
        return cls(bases, values, len(entries))

    def resolve(self, address: Union[int, str, Address]) -> Optional[int]:
        """Next hop for *address*, identical to ``trie.lookup_value``."""
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
