"""IPv4 addresses and prefixes as lightweight immutable value types.

The simulator allocates addresses out of RFC 1918 space; nothing here ever
touches a real socket.  Addresses are stored as plain ints so that sets and
dicts of millions of them stay cheap, with a thin class wrapper for parsing,
formatting and containment tests.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Union

from repro.errors import AddressError

_MAX_ADDR = (1 << 32) - 1


def _parse_dotted_quad(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"malformed IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def _format_dotted_quad(value: int) -> str:
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


class Address:
    """An IPv4 address.

    Accepts either a dotted-quad string or a raw 32-bit int.  Instances are
    immutable, hashable and totally ordered by numeric value.
    """

    __slots__ = ("_value", "_text")

    def __new__(cls, value: Union[int, str, "Address"]):
        if isinstance(value, Address):
            return value  # immutable: converting one is the identity
        self = object.__new__(cls)
        if isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        elif isinstance(value, int):
            if not 0 <= value <= _MAX_ADDR:
                raise AddressError(f"address int out of range: {value}")
            self._value = value
        else:
            raise AddressError(f"cannot build Address from {value!r}")
        self._text = None
        return self

    def __getnewargs__(self):
        return (self._value,)

    @property
    def value(self) -> int:
        """The raw 32-bit integer value."""
        return self._value

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = _format_dotted_quad(self._value)
        return text

    def __repr__(self) -> str:
        return f"Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Address):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __lt__(self, other: "Address") -> bool:
        if not isinstance(other, Address):
            return NotImplemented
        return self._value < other._value

    def __le__(self, other: "Address") -> bool:
        if not isinstance(other, Address):
            return NotImplemented
        return self._value <= other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __add__(self, offset: int) -> "Address":
        return Address(self._value + offset)


def address_int(address: Union[int, str, Address]) -> int:
    """*address* as its 32-bit int value.

    An int is returned as it stands and an :class:`Address` gives up
    the value it validated when it was built: the per-hop lookups must
    not pay to re-wrap either.  Strings are validated as usual.
    """
    if type(address) is int:  # noqa: E721
        return address
    return Address(address)._value


class Prefix(tuple):
    """An IPv4 prefix: the int pair ``(base, length)``.

    A tuple, so a prefix hashes, compares and sorts as its pair does, in
    C: routing state is keyed by prefix in every layer, and
    ``hash(Prefix(b, l)) == hash((b, l))``.  The network base is
    canonicalized: host bits beyond the mask are rejected rather than
    silently cleared, because a non-canonical prefix in routing code is
    almost always a bug.
    """

    __slots__ = ()

    def __new__(cls, base: Union[int, str, Address], length: int = None):
        if isinstance(base, str) and length is None:
            if "/" not in base:
                raise AddressError(f"prefix string needs a /length: {base!r}")
            addr_text, _, len_text = base.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"malformed prefix length in {base!r}")
            base, length = _parse_dotted_quad(addr_text), int(len_text)
        elif length is None:
            raise AddressError("Prefix needs an explicit length")
        if isinstance(base, Address):
            base = base.value
        elif isinstance(base, str):
            base = _parse_dotted_quad(base)
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        if not 0 <= base <= _MAX_ADDR:
            raise AddressError(f"prefix base out of range: {base}")
        if base & ~cls._mask_for(length) & _MAX_ADDR:
            raise AddressError(
                f"prefix base {_format_dotted_quad(base)} has host bits set "
                f"beyond /{length}"
            )
        return tuple.__new__(cls, (base, length))

    def __getnewargs__(self):
        # tuple's own would hand __new__ the pair as one argument.
        return tuple(self)

    @staticmethod
    def _mask_for(length: int) -> int:
        if length == 0:
            return 0
        return (_MAX_ADDR << (32 - length)) & _MAX_ADDR

    base = property(itemgetter(0), doc="Integer value of the network address.")
    length = property(itemgetter(1), doc="Mask length in bits (0-32).")

    @property
    def mask(self) -> int:
        """Integer netmask."""
        return self._mask_for(self[1])

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (32 - self[1])

    def contains(self, item: Union[int, str, Address, "Prefix"]) -> bool:
        """True if *item* (address or sub-prefix) falls inside this prefix."""
        if isinstance(item, Prefix):
            return item[1] >= self[1] and (item[0] & self.mask) == self[0]
        return (Address(item).value & self.mask) == self[0]

    def __contains__(self, item: Union[int, str, Address, "Prefix"]) -> bool:
        return self.contains(item)  # address containment, not membership

    def address(self, offset: int) -> Address:
        """The *offset*-th address inside the prefix (0 = network address)."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(
                f"offset {offset} outside {self} ({self.num_addresses} addrs)"
            )
        return Address(self[0] + offset)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the sub-prefixes of *new_length* bits covering this one."""
        base, length = self
        if new_length < length or new_length > 32:
            raise AddressError(f"cannot split /{length} into /{new_length}")
        step = 1 << (32 - new_length)
        for sub in range(base, base + self.num_addresses, step):
            yield Prefix(sub, new_length)

    def supernet(self, new_length: int) -> "Prefix":
        """The covering prefix of *new_length* bits (must be shorter)."""
        if new_length > self[1] or new_length < 0:
            raise AddressError(
                f"/{new_length} is not a supernet length of /{self[1]}"
            )
        return Prefix(self[0] & self._mask_for(new_length), new_length)

    def is_more_specific_of(self, other: "Prefix") -> bool:
        """True if this prefix is strictly inside *other*."""
        return self[1] > other[1] and other.contains(self)

    def __str__(self) -> str:
        return f"{_format_dotted_quad(self[0])}/{self[1]}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"
