"""Unit tests for repro.net.addr."""

import pytest

from repro.errors import AddressError
from repro.net.addr import Address, Prefix
from repro.topology.relationships import Relationship


class TestAddress:
    def test_parse_dotted_quad(self):
        assert Address("10.1.2.3").value == (10 << 24) | (1 << 16) | (2 << 8) | 3

    def test_roundtrip_string(self):
        for text in ["0.0.0.0", "255.255.255.255", "192.168.1.1"]:
            assert str(Address(text)) == text

    def test_int_construction(self):
        assert str(Address(0x0A000001)) == "10.0.0.1"

    def test_equality_with_int(self):
        assert Address("10.0.0.1") == 0x0A000001

    def test_ordering(self):
        assert Address("10.0.0.1") < Address("10.0.0.2")
        assert Address("9.255.255.255") <= Address("10.0.0.0")

    def test_hashable(self):
        assert len({Address("1.2.3.4"), Address("1.2.3.4")}) == 1

    def test_add_offset(self):
        assert Address("10.0.0.1") + 5 == Address("10.0.0.6")

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4"]
    )
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            Address(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            Address(1 << 32)
        with pytest.raises(AddressError):
            Address(-1)


class TestPrefix:
    def test_parse_slash_notation(self):
        p = Prefix("10.0.0.0/8")
        assert p.length == 8
        assert p.base == 10 << 24

    def test_base_and_length_construction(self):
        assert Prefix(10 << 24, 8) == Prefix("10.0.0.0/8")

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.1/8")

    def test_contains_address(self):
        p = Prefix("10.1.0.0/16")
        assert "10.1.2.3" in p
        assert "10.2.0.0" not in p

    def test_contains_subprefix(self):
        outer = Prefix("10.0.0.0/8")
        assert Prefix("10.1.0.0/16") in outer
        assert Prefix("11.0.0.0/16") not in outer
        assert Prefix("0.0.0.0/0") not in outer

    def test_num_addresses(self):
        assert Prefix("10.0.0.0/24").num_addresses == 256
        assert Prefix("10.0.0.4/30").num_addresses == 4

    def test_address_offset(self):
        p = Prefix("10.0.0.0/24")
        assert p.address(1) == Address("10.0.0.1")
        with pytest.raises(AddressError):
            p.address(256)

    def test_subnets(self):
        subs = list(Prefix("10.0.0.0/30").subnets(31))
        assert subs == [Prefix("10.0.0.0/31"), Prefix("10.0.0.2/31")]

    def test_supernet(self):
        assert Prefix("10.1.0.0/16").supernet(8) == Prefix("10.0.0.0/8")
        with pytest.raises(AddressError):
            Prefix("10.0.0.0/8").supernet(16)

    def test_is_more_specific_of(self):
        assert Prefix("10.1.0.0/16").is_more_specific_of(Prefix("10.0.0.0/8"))
        assert not Prefix("10.0.0.0/8").is_more_specific_of(
            Prefix("10.0.0.0/8")
        )

    def test_str_roundtrip(self):
        assert str(Prefix("172.16.0.0/12")) == "172.16.0.0/12"
        assert Prefix(str(Prefix("1.0.0.0/8"))) == Prefix("1.0.0.0/8")

    def test_bad_lengths(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.0/33")
        with pytest.raises(AddressError):
            Prefix("10.0.0.0")


class TestRoutingKeysHashInC:
    """Routing state is keyed by prefix and policy by relationship in
    every layer: a Python ``__hash__`` or ``__eq__`` on either is a
    Python call per dict probe, on every message the engine handles."""

    def test_prefix_is_its_pair(self):
        assert Prefix.__hash__ is tuple.__hash__
        assert Prefix.__eq__ is tuple.__eq__
        assert Prefix.__lt__ is tuple.__lt__
        assert Prefix("10.0.0.0/8") == (10 << 24, 8)

    def test_relationship_hashes_by_identity(self):
        assert Relationship.__hash__ is object.__hash__
