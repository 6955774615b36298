"""Policy-compliant alternate-path analysis (§2.2, §5.1).

Two export-policy tests are provided: the ground-truth valley-free check
over the relationship-labelled AS graph, and the paper's observed
*three-tuple* test, which accepts an AS subpath of length three iff it was
seen in some measured path — usable when relationships are unknown.
"""

from repro.splice.reachability import reachable_set_avoiding
from repro.splice.three_tuple import TripleSet
from repro.splice.splicer import PathCorpus
from repro.splice.simulate import (
    PoisonOutcome,
    simulate_poisonings_over_corpus,
)

__all__ = [
    "reachable_set_avoiding",
    "TripleSet",
    "PathCorpus",
    "PoisonOutcome",
    "simulate_poisonings_over_corpus",
]
