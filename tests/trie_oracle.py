"""Binary trie over IPv4 prefixes with longest-prefix-match lookup.

FIBs are plain prefix maps compiled to interval tables
(:mod:`repro.net.lpm`); the trie is the independent oracle the tests
build (:meth:`PrefixTrie.from_items`) and check those tables against.
The library does not import it, nor :func:`intervals`, the canonical
form two interval tables are compared in, nor :func:`moved_rows`, the
map diff a FIB refresh's log is held to.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar, Union

from repro.net.addr import Address, Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Maps :class:`Prefix` keys to arbitrary values with LPM lookup."""

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    @classmethod
    def from_items(cls, items: Iterable[Tuple[Prefix, V]]) -> "PrefixTrie[V]":
        """A trie holding every (prefix, value) pair of *items*."""
        trie: PrefixTrie[V] = cls()
        for prefix, value in items:
            trie.insert(prefix, value)
        return trie

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @staticmethod
    def _bits(prefix: Prefix) -> Iterator[int]:
        base = prefix.base
        for depth in range(prefix.length):
            yield (base >> (31 - depth)) & 1

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at *prefix*."""
        node = self._root
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    def remove(self, prefix: Prefix) -> None:
        """Remove *prefix*; raises KeyError if absent."""
        path: List[Tuple[_Node[V], int]] = []
        node = self._root
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                raise KeyError(str(prefix))
            path.append((node, bit))
            node = child
        if not node.has_value:
            raise KeyError(str(prefix))
        node.has_value = False
        node.value = None
        self._size -= 1
        # Prune now-empty branches so long-lived tries don't leak nodes.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child is not None and not child.has_value and not any(
                child.children
            ):
                parent.children[bit] = None
            else:
                break

    def exact(self, prefix: Prefix) -> Optional[V]:
        """The value stored exactly at *prefix*, or None."""
        node = self._root
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node.value if node.has_value else None

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._root
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                return False
            node = child
        return node.has_value

    def __getitem__(self, prefix: Prefix) -> V:
        value = self.exact(prefix)
        if value is None and prefix not in self:
            raise KeyError(str(prefix))
        return value  # type: ignore[return-value]

    def lookup(
        self, address: Union[int, str, Address]
    ) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for *address*.

        Returns the (prefix, value) of the most specific covering entry, or
        None when nothing covers the address (no default route installed).
        """
        value = Address(address).value
        node = self._root
        best: Optional[Tuple[int, V]] = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[assignment]
        for depth in range(32):
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth + 1, node.value)  # type: ignore[assignment]
        if best is None:
            return None
        length, found = best
        mask = Prefix._mask_for(length)
        return Prefix(value & mask, length), found

    def lookup_value(self, address: Union[int, str, Address]) -> Optional[V]:
        """Like :meth:`lookup` but returns only the value."""
        hit = self.lookup(address)
        return hit[1] if hit else None

    def covering(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """All entries that cover *prefix*, most specific last."""
        node = self._root
        out: List[Tuple[Prefix, V]] = []
        if node.has_value:
            out.append((Prefix(0, 0), node.value))  # type: ignore[arg-type]
        depth = 0
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                return out
            node = child
            depth += 1
            if node.has_value:
                mask = Prefix._mask_for(depth)
                out.append(
                    (Prefix(prefix.base & mask, depth), node.value)
                )  # type: ignore[arg-type]
        return out

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate all (prefix, value) pairs in trie order."""

        def walk(node: _Node[V], base: int, depth: int):
            if node.has_value:
                yield Prefix(base, depth), node.value
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    yield from walk(
                        child, base | (bit << (31 - depth)), depth + 1
                    )

        yield from walk(self._root, 0, 0)


def intervals(flat) -> List[Tuple[int, Optional[V]]]:
    """A flat table's (base, value) boundaries, equal-valued neighbours
    merged: tables on any two axes compare equal iff they resolve
    alike."""
    merged = [(0, flat.values[0])]
    for base, value in zip(flat.bases, flat.values):
        if merged[-1][1] != value:
            merged.append((base, value))
    return merged


def moved_rows(was, new):
    """The prefixes whose row differs between two maps (None: no map)."""
    return {prefix for prefix, _ in (was or {}).items() ^ (new or {}).items()}
