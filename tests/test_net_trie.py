"""Unit tests for the longest-prefix-match trie."""

import pytest

from repro.net.addr import Address, Prefix
from tests.trie_oracle import PrefixTrie


@pytest.fixture
def trie():
    t = PrefixTrie()
    t[Prefix("10.0.0.0/8")] = "eight"
    t[Prefix("10.1.0.0/16")] = "sixteen"
    t[Prefix("10.1.2.0/24")] = "twentyfour"
    return t


class TestLookup:
    def test_longest_match_wins(self, trie):
        prefix, value = trie.lookup("10.1.2.3")
        assert value == "twentyfour"
        assert prefix == Prefix("10.1.2.0/24")

    def test_falls_back_to_covering(self, trie):
        assert trie.lookup_value("10.1.9.9") == "sixteen"
        assert trie.lookup_value("10.9.9.9") == "eight"

    def test_miss_returns_none(self, trie):
        assert trie.lookup("11.0.0.1") is None

    def test_default_route(self):
        t = PrefixTrie()
        t[Prefix("0.0.0.0/0")] = "default"
        assert t.lookup_value("203.0.113.7") == "default"

    def test_lookup_accepts_address_objects(self, trie):
        assert trie.lookup_value(Address("10.1.2.3")) == "twentyfour"


class TestMutation:
    def test_insert_replaces(self, trie):
        trie[Prefix("10.0.0.0/8")] = "new"
        assert trie.exact(Prefix("10.0.0.0/8")) == "new"
        assert len(trie) == 3

    def test_remove(self, trie):
        trie.remove(Prefix("10.1.2.0/24"))
        assert trie.lookup_value("10.1.2.3") == "sixteen"
        assert len(trie) == 2

    def test_remove_missing_raises(self, trie):
        with pytest.raises(KeyError):
            trie.remove(Prefix("10.3.0.0/16"))

    def test_remove_then_lookup_sibling_unaffected(self, trie):
        trie.remove(Prefix("10.1.0.0/16"))
        assert trie.lookup_value("10.1.2.3") == "twentyfour"

    def test_len_and_bool(self):
        t = PrefixTrie()
        assert not t
        t[Prefix("10.0.0.0/8")] = 1
        assert t and len(t) == 1


class TestTraversal:
    def test_items_enumerates_everything(self, trie):
        assert dict(trie.items()) == {
            Prefix("10.0.0.0/8"): "eight",
            Prefix("10.1.0.0/16"): "sixteen",
            Prefix("10.1.2.0/24"): "twentyfour",
        }

    def test_covering_ordering(self, trie):
        covers = trie.covering(Prefix("10.1.2.0/24"))
        assert [p for p, _ in covers] == [
            Prefix("10.0.0.0/8"),
            Prefix("10.1.0.0/16"),
            Prefix("10.1.2.0/24"),
        ]

    def test_contains(self, trie):
        assert Prefix("10.1.0.0/16") in trie
        assert Prefix("10.2.0.0/16") not in trie
