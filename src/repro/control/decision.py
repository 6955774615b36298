"""Deciding whether to poison (§4.2).

Most outages resolve in seconds; triggering route exploration for those
would add churn for nothing.  LIFEGUARD's insight (Fig. 5) is that outage
duration is heavy-tailed: *given* that an outage has already lasted a few
minutes, it will most likely last several more — long enough to justify
poisoning, since poisoned routes converge within a couple of minutes.

The model here is fit from a historical sample of outage durations (the
EC2-study trace, or any operator's own history) and answers "should we
poison an outage that has persisted for X seconds?" with the paper's
criterion: the median residual duration at X must exceed the expected
remediation time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ControlError

#: :meth:`ResidualDurationModel.decide`'s *remediation_time* and
#: *min_elapsed*, which every deployment runs with.
REMEDIATION_TIME = 120.0
MIN_PERSISTENCE = 300.0


@dataclass(frozen=True)
class PoisonDecision:
    """The verdict for one outage."""

    poison: bool
    elapsed: float
    expected_residual: float
    rationale: str


class ResidualDurationModel:
    """Residual outage duration conditioned on elapsed duration (Fig. 5)."""

    def __init__(self, durations: Sequence[float]) -> None:
        """*durations* are historical outage durations in seconds."""
        if not durations:
            raise ControlError("need a non-empty duration sample")
        self._durations = sorted(float(d) for d in durations)

    def survivors(self, elapsed: float) -> List[float]:
        """Durations of outages that survived past *elapsed* seconds."""
        return self._durations[bisect_right(self._durations, elapsed):]

    def survival_probability(
        self, elapsed: float, additional: float
    ) -> float:
        """P(outage lasts >= additional more | lasted elapsed already)."""
        survivors = self.survivors(elapsed)
        if not survivors:
            return 0.0
        further = [d for d in survivors if d >= elapsed + additional]
        return len(further) / len(survivors)

    def residual_percentile(
        self, elapsed: float, fraction: float
    ) -> Optional[float]:
        """Percentile of remaining duration among survivors at *elapsed*.

        Subtracting *elapsed* keeps the sorted order, so the two
        residuals the interpolation needs are read in place."""
        durations = self._durations
        first = bisect_right(durations, elapsed)
        last = len(durations) - first - 1
        if last < 0:
            return None
        index = fraction * last
        low = int(index)
        high = min(low + 1, last)
        weight = index - low
        return (durations[first + low] - elapsed) * (1 - weight) + (
            durations[first + high] - elapsed
        ) * weight

    def median_residual(self, elapsed: float) -> Optional[float]:
        return self.residual_percentile(elapsed, 0.5)

    # ------------------------------------------------------------------
    # The decision rule
    # ------------------------------------------------------------------
    def decide(
        self,
        elapsed: float,
        remediation_time: float = REMEDIATION_TIME,
        min_elapsed: float = MIN_PERSISTENCE,
    ) -> PoisonDecision:
        """Should we poison an outage that has lasted *elapsed* seconds?

        Requires the outage to have persisted at least *min_elapsed* (the
        paper waits out the convergence-resolvable problems, ~5 minutes
        including detection and isolation), and the median residual
        duration to exceed *remediation_time* (poisoned-route convergence
        takes about two minutes, §5.2).
        """
        median = self.median_residual(elapsed)
        expected = median if median is not None else 0.0
        if elapsed < min_elapsed:
            return PoisonDecision(
                poison=False,
                elapsed=elapsed,
                expected_residual=expected,
                rationale=(
                    f"outage only {elapsed:.0f}s old (< {min_elapsed:.0f}s); "
                    "likely to resolve via normal convergence"
                ),
            )
        if median is None or median < remediation_time:
            return PoisonDecision(
                poison=False,
                elapsed=elapsed,
                expected_residual=expected,
                rationale=(
                    "median residual duration "
                    f"{expected:.0f}s below remediation cost "
                    f"{remediation_time:.0f}s"
                ),
            )
        return PoisonDecision(
            poison=True,
            elapsed=elapsed,
            expected_residual=expected,
            rationale=(
                f"persisted {elapsed:.0f}s; median residual "
                f"{expected:.0f}s >= remediation cost "
                f"{remediation_time:.0f}s"
            ),
        )
