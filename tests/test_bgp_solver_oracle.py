"""``solve_prefix`` against the list-and-``min`` solve it replaced.

``tests/solver_oracle.py`` keeps every offer a receiver hears and picks
``min`` at pop time, then materialises ``(src, dst)``-keyed wire state;
``solve_prefix`` keeps one best offer per receiver, installs in one pass
and groups wire rows by exporter.  The two must agree in value and in
dict insertion order — ``adj_in``'s receivers, each receiver's senders,
``best`` and the flattened wire rows — because ``warm_start`` and the
delta splice install in that order and every digest downstream reads
it.  Inputs: drawn Gao-Rexford graphs with plain, prepended, poisoned,
per-neighbour-suppressed and MED-tagged originations, and every
origination of a fuzz campaign (seed from ``REPRO_DELTA_SEEDS``, as in
``tests/test_bgp_delta.py``) at the tiny, small and medium scales.
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.engine import BGPEngine
from repro.bgp.solver import (
    Origination,
    build_adjacency,
    derive_rows,
    solve_prefix,
)
from repro.fuzz.gen import generate_case
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship
from tests.solver_oracle import oracle_solve_prefix

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_DELTA_SEEDS", "0,1,2").split(",")
    if s.strip()
)
#: Cases per scale in the campaign sweep.
SWEEP_CASES = 200
P = Prefix("10.77.0.0/16")
#: Indexed by 1 + (b above a) - (b below a): b's role for a.
ROLES = (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)


def assert_matches_oracle(org, adjacency):
    solution = solve_prefix(org, adjacency, {
        "up": 0.0, "across": 0.0, "down": 0.0, "install": 0.0,
    })
    adj_in, best, sent = oracle_solve_prefix(org, adjacency)
    solved_adj_in, solved_sent = derive_rows(solution)
    assert list(solved_adj_in) == list(adj_in)
    for receiver, rows in adj_in.items():
        assert list(solved_adj_in[receiver].items()) == list(rows.items())
    assert list(solution.best.items()) == list(best.items())
    flat = [
        ((src, dst), announcement)
        for src, row in solved_sent.items()
        for dst, announcement in row.items()
    ]
    assert flat == list(sent.items())
    assert all(solved_sent.values()), "an exporter with an empty row"


def _adjacency(asns, links):
    graph = ASGraph()
    for asn in asns:
        graph.add_as(asn)
    for a, b, role in links:
        graph.add_link(a, b, role)
    return build_adjacency(BGPEngine(graph))


@st.composite
def graphs_and_originations(draw):
    """A connected graph on 3–7 ASes and one origination per AS.

    Links are a spanning tree plus extra ones.  Most follow drawn tiers
    (the higher tier provides, equal tiers peer), the rest take any
    role, so provider cycles appear too.  Per-neighbour prepends on
    dense small graphs are where an origin offer and a transit offer
    meet at one length and only the MED tells them apart."""
    n = draw(st.integers(3, 7))
    asns = list(range(1, n + 1))
    tier = {asn: draw(st.integers(0, 2)) for asn in asns}
    edges = {}
    for child in asns[1:]:
        edges[(draw(st.sampled_from(asns[:child - 1])), child)] = None
    for a, b in draw(st.lists(
        st.tuples(st.sampled_from(asns), st.sampled_from(asns)),
        max_size=2 * n,
    )):
        if a != b and (a, b) not in edges and (b, a) not in edges:
            edges[(a, b)] = None
    links = []
    neighbors = {asn: [] for asn in asns}
    for a, b in edges:
        if draw(st.integers(0, 4)):
            role = ROLES[(tier[b] < tier[a]) - (tier[b] > tier[a]) + 1]
        else:
            role = draw(st.sampled_from(ROLES))
        links.append((a, b, role))
        neighbors[a].append(b)
        neighbors[b].append(a)

    originations = []
    for origin in asns:
        prepend = st.integers(1, 3).map(lambda k, o=origin: (o,) * k)
        poison = st.lists(
            st.sampled_from([asn for asn in asns if asn != origin]),
            min_size=1, max_size=2, unique=True,
        ).map(lambda hops, o=origin: (o, *hops, o))
        style = draw(st.sampled_from(
            ("plain", "prepend", "poison", "per-prepend", "per-mixed")
        ))
        path = per_neighbor = None
        if style == "prepend":
            path = draw(prepend)
        elif style == "poison":
            path = draw(poison)
        elif style == "per-prepend":
            per_neighbor = {nbr: draw(prepend) for nbr in neighbors[origin]}
        elif style == "per-mixed":
            per_neighbor = {
                nbr: draw(st.none() | prepend | poison)
                for nbr in neighbors[origin]
            }
        originations.append(Origination.make(
            origin, P, path=path, per_neighbor=per_neighbor,
            med=draw(st.sampled_from((0, 1, 5))),
        ))
    return asns, links, originations


class TestDrawnGraphs:
    @settings(max_examples=300, deadline=None)
    @given(graphs_and_originations())
    @example((
        # Origin 1 under providers 2 and 3, 3 also under 2: AS2 hears
        # the origin's prepended, MED-tagged path and AS3's transit path
        # at one length, and only the MED tells them apart.
        [1, 2, 3],
        [
            (1, 2, Relationship.PROVIDER),
            (1, 3, Relationship.PROVIDER),
            (3, 2, Relationship.PROVIDER),
        ],
        [Origination.make(1, P, per_neighbor={2: (1, 1), 3: (1,)}, med=5)],
    ))
    @example((
        # Origin 1 under providers 2 and 3, both under 4 and 5; the path
        # to 2 poisons 4 and the path to 3 poisons 5.  So 5 hears only
        # 2's chain and 4 only 3's: an offer's loop check reads its own
        # chain's first-hop path, not the origination's or another's.
        [1, 2, 3, 4, 5],
        [
            (1, 2, Relationship.PROVIDER),
            (1, 3, Relationship.PROVIDER),
            (2, 4, Relationship.PROVIDER),
            (2, 5, Relationship.PROVIDER),
            (3, 4, Relationship.PROVIDER),
            (3, 5, Relationship.PROVIDER),
        ],
        [Origination.make(1, P, per_neighbor={2: (1, 4, 1), 3: (1, 5, 1)})],
    ))
    def test_values_and_order_match(self, drawn):
        asns, links, originations = drawn
        adjacency = _adjacency(asns, links)
        for org in originations:
            assert_matches_oracle(org, adjacency)


class TestCampaignSweep:
    @pytest.mark.parametrize("scale", ("tiny", "small", "medium"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_origination_matches(self, seed, scale):
        for index in range(SWEEP_CASES):
            case = generate_case(seed, index, scale)
            adjacency = build_adjacency(BGPEngine(case.build_graph()))
            for org in case.resolved_originations():
                assert_matches_oracle(org, adjacency)
