"""The observed three-tuple export-policy test (§2.2, following iPlane).

When ground-truth relationships are unknown, a candidate AS path is judged
policy-compliant if every length-three AS subpath in it was observed in at
least one real (measured) path: if some AS B ever carried traffic from A to
C, then the triple A-B-C is evidently export-compliant.  The paper uses the
test both to validate spliced paths and to simulate poisoning over its
BitTorrent + BGP-feed corpus.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple


class TripleSet:
    """A set of observed AS triples, built from a corpus of AS paths."""

    def __init__(self) -> None:
        self._triples: Set[Tuple[int, int, int]] = set()
        self.paths_observed = 0

    def observe_path(self, path: Sequence[int]) -> None:
        """Record every triple from one AS path.

        Consecutive duplicates (prepending) are collapsed first.
        """
        collapsed: List[int] = []
        for asn in path:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        self.paths_observed += 1
        for i in range(len(collapsed) - 2):
            a, b, c = collapsed[i : i + 3]
            self._triples.add((a, b, c))
            self._triples.add((c, b, a))  # observed transit is bidirectional

    def __len__(self) -> int:
        return len(self._triples)

    def allows_triple(self, a: int, b: int, c: int) -> bool:
        """True if B has been seen carrying traffic between A and C."""
        return (a, b, c) in self._triples

    def allows_splice(
        self, left: Sequence[int], joint: int, right: Sequence[int]
    ) -> bool:
        """The paper's splice test: the triple centred at the joint.

        *left* ends just before the joint, *right* starts just after it —
        the spliced path is ``left + [joint] + right``.  Only the length-3
        subpath centred at the splice point must have been observed (§2.2).
        """
        if not left or not right:
            return True
        return self.allows_triple(left[-1], joint, right[0])
