"""Tests for valley-free reachability, the three-tuple test, and splicing."""


from repro.splice.reachability import reachable_set_avoiding
from repro.splice.simulate import (
    fraction_with_alternates,
    poisonable_transits,
    simulate_poisonings_over_corpus,
)
from repro.splice.splicer import Hop, PathCorpus, Trace
from repro.splice.three_tuple import TripleSet
from repro.topology.as_graph import ASGraph
from repro.topology.generate import InternetShape, generate_internet
from repro.topology.relationships import Relationship
from tests.splice_oracle import valley_free_path, valley_free_reachable


def diamond():
    """Origin 1 behind B(2); B buys from C(3) and A(6); E(5) buys from
    D(4) and A(6); D buys from C."""
    g = ASGraph()
    for asn in (1, 2, 3, 4, 5, 6):
        g.add_as(asn)
    g.add_link(1, 2, Relationship.PROVIDER)
    g.add_link(2, 3, Relationship.PROVIDER)
    g.add_link(2, 6, Relationship.PROVIDER)
    g.add_link(4, 3, Relationship.PROVIDER)
    g.add_link(5, 4, Relationship.PROVIDER)
    g.add_link(5, 6, Relationship.PROVIDER)
    return g


class TestReachability:
    def test_basic_reachability(self):
        g = diamond()
        assert valley_free_reachable(g, 5, 1)

    def test_avoiding_one_transit_uses_other(self):
        g = diamond()
        assert valley_free_reachable(g, 5, 1, avoid=[6])
        assert valley_free_reachable(g, 5, 1, avoid=[4])

    def test_avoiding_sole_provider_cuts_off(self):
        g = diamond()
        assert not valley_free_reachable(g, 5, 1, avoid=[2])

    def test_avoiding_origin_is_empty(self):
        g = diamond()
        assert reachable_set_avoiding(g, 1, avoid=[1]) == set()

    def test_valley_violation_not_reachable(self):
        # 1 and 3 are both customers of 2; 3 has a private peer 4.
        # 4 can reach 1 only via 3 then *up* through 2 - a valley.
        g = ASGraph()
        for asn in (1, 2, 3, 4):
            g.add_as(asn)
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)
        g.add_link(3, 4, Relationship.PEER)
        assert not valley_free_reachable(g, 4, 1)

    def test_peer_at_top_allowed(self):
        g = ASGraph()
        for asn in (1, 2, 3, 4):
            g.add_as(asn)
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(2, 3, Relationship.PEER)
        g.add_link(4, 3, Relationship.PROVIDER)
        assert valley_free_reachable(g, 4, 1)

    def test_explicit_path_is_valley_free(self):
        g = diamond()
        path = valley_free_path(g, 5, 1, avoid=[6])
        assert path is not None
        assert path[0] == 5 and path[-1] == 1
        assert 6 not in path

    def test_explicit_path_none_when_unreachable(self):
        g = diamond()
        assert valley_free_path(g, 5, 1, avoid=[2]) is None

    def test_path_matches_reachability_on_random_graph(self):
        g = generate_internet(
            InternetShape(num_tier1=3, num_tier2=8, num_stubs=20), seed=9
        )
        ases = sorted(g.ases())
        for source in ases[:6]:
            for origin in ases[-6:]:
                if source == origin:
                    continue
                has_path = valley_free_path(g, source, origin) is not None
                assert has_path == valley_free_reachable(g, source, origin)


class TestTripleSet:
    def test_observed_triples_allowed(self):
        triples = TripleSet()
        triples.observe_path([1, 2, 3, 4])
        assert triples.allows_triple(1, 2, 3)
        assert triples.allows_triple(3, 2, 1)  # reverse direction
        assert not triples.allows_triple(1, 3, 4)

    def test_prepends_collapsed(self):
        triples = TripleSet()
        triples.observe_path([1, 1, 2, 2, 3])
        assert triples.allows_triple(1, 2, 3)

    def test_allows_path(self):
        triples = TripleSet()
        for path in ([1, 2, 3, 4], [2, 3, 5]):
            triples.observe_path(path)
        assert triples.allows_triple(1, 2, 3)
        assert triples.allows_triple(2, 3, 4)
        assert triples.allows_triple(2, 3, 5)  # [1, 2, 3, 5] splices both
        assert not triples.allows_triple(4, 1, 2)  # unseen adjacency

    def test_allows_splice_checks_centre_triple(self):
        triples = TripleSet()
        triples.observe_path([1, 2, 3])
        assert triples.allows_splice([1], 2, [3])
        assert not triples.allows_splice([4], 2, [3])


class TestSplicer:
    def _trace(self, src, dst, hops, reached=True):
        return Trace(
            source=src,
            destination=dst,
            hops=tuple(Hop(address=a, asn=asn) for a, asn in hops),
            reached=reached,
        )

    def test_finds_splice_avoiding_failed_as(self):
        corpus = PathCorpus()
        # s -> x via AS 10,20 ; y -> d via AS 20,30 sharing ip 200.
        corpus.add(self._trace("s", "x", [(100, 10), (200, 20), (300, 25)]))
        corpus.add(self._trace("y", "d", [(150, 15), (200, 20), (400, 30)]))
        # Some third path witnessed AS 20 carrying 10 -> 30 traffic, so the
        # splice triple passes the export-policy test.
        corpus.add(self._trace("z", "w", [(500, 10), (210, 20), (410, 30)]))
        # Direct path s->d went through AS 99 (now failed): not in corpus.
        spliced = corpus.find_splice("s", "d", avoid_asns=[99])
        assert spliced is not None
        assert spliced.splice_address == 200
        assert [h.asn for h in spliced.hops] == [10, 20, 30]

    def test_no_splice_through_avoided_as(self):
        corpus = PathCorpus()
        corpus.add(self._trace("s", "x", [(100, 10), (200, 20)]))
        corpus.add(self._trace("y", "d", [(200, 20), (400, 30)]))
        assert corpus.find_splice("s", "d", avoid_asns=[20]) is None
        assert corpus.find_splice("s", "d", avoid_asns=[30]) is None

    def test_requires_shared_ip_not_just_shared_as(self):
        corpus = PathCorpus()
        corpus.add(self._trace("s", "x", [(100, 10), (201, 20)]))
        corpus.add(self._trace("y", "d", [(202, 20), (400, 30)]))
        # Same AS 20 but different addresses: the paper's method would
        # miss this intersection, and so do we.
        assert corpus.find_splice("s", "d", avoid_asns=[99]) is None

    def test_policy_check_blocks_unobserved_triple(self):
        corpus = PathCorpus()
        corpus.add(self._trace("s", "x", [(100, 10), (200, 20)]))
        corpus.add(self._trace("y", "d", [(200, 20), (400, 30)]))
        # Triple (10, 20, 30) never appeared in a single observed path.
        assert corpus.find_splice("s", "d", avoid_asns=[99]) is None
        # Without the policy requirement the splice exists.
        assert (
            corpus.find_splice("s", "d", [99], require_policy=False)
            is not None
        )


class TestPoisonSimulation:
    def test_simulate_single_case(self):
        g = diamond()
        assert 5 in reachable_set_avoiding(g, 1, avoid=[6])
        assert 5 not in reachable_set_avoiding(g, 1, avoid=[2])

    def test_poisonable_transits_skips_short_paths(self):
        assert poisonable_transits([1, 2, 3]) == []
        assert poisonable_transits([5, 4, 3, 2, 1]) == [4, 3]

    def test_poisonable_transits_collapses_prepends(self):
        assert poisonable_transits([5, 4, 4, 3, 2, 1, 1]) == [4, 3]

    def test_corpus_simulation(self):
        g = diamond()
        outcomes = simulate_poisonings_over_corpus(
            g, paths=[[5, 6, 2, 1], [5, 4, 3, 2, 1]]
        )
        # Path 1: poison 6 -> alternate exists. Path 2: poison 4 and 3.
        assert len(outcomes) == 3
        assert 0.0 < fraction_with_alternates(outcomes) <= 1.0

    def test_corpus_simulation_dedupes(self):
        g = diamond()
        outcomes = simulate_poisonings_over_corpus(
            g, paths=[[5, 6, 2, 1], [5, 6, 2, 1]]
        )
        assert len(outcomes) == 1
