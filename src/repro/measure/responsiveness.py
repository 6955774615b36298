"""Historical ping-responsiveness database.

LIFEGUARD "maintains a database of historical ping responsiveness, allowing
it to later distinguish between connectivity problems and routers
configured to not respond to ICMP probes" (§4.1.2).  A router that has
never answered despite enough attempts is *configured silent*; its silence
during a failure carries no information and isolation must exclude it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from repro.net.addr import Address

#: Attempts before silence is attributed to configuration, not failure.
MIN_ATTEMPTS_FOR_VERDICT = 3


@dataclass
class _History:
    attempts: int = 0
    successes: int = 0
    last_response_time: float = float("-inf")


class ResponsivenessDB:
    """Tracks which addresses have ever answered probes."""

    def __init__(self) -> None:
        self._history: Dict[int, _History] = {}

    def record(
        self,
        address: Union[str, Address],
        responded: bool,
        time: float = 0.0,
    ) -> None:
        """Record one probe attempt's outcome."""
        key = Address(address).value
        history = self._history.setdefault(key, _History())
        history.attempts += 1
        if responded:
            history.successes += 1
            history.last_response_time = max(
                history.last_response_time, time
            )

    def configured_silent(self, address: Union[str, Address]) -> bool:
        """True if silence should be attributed to ICMP configuration.

        Requires enough failed attempts and no success ever; an address we
        have never probed is *not* assumed silent.
        """
        history = self._history.get(Address(address).value)
        if history is None:
            return False
        return (
            history.successes == 0
            and history.attempts >= MIN_ATTEMPTS_FOR_VERDICT
        )

    def last_response_time(self, address: Union[str, Address]) -> float:
        """Time of the most recent response (-inf if never)."""
        history = self._history.get(Address(address).value)
        return history.last_response_time if history else float("-inf")

    def __len__(self) -> int:
        return len(self._history)
