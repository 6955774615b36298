"""Bounded per-stage work queues for the repair pipeline.

The one-shot :meth:`~repro.control.lifeguard.Lifeguard.tick` dispatches
every record every round; a service that monitors thousands of pairs
cannot — one bad hour would pile unbounded isolation work onto a single
round.  The daemon instead routes records through one bounded FIFO per
repair stage (isolate, verify, retry, check) and spends a fixed per-round
budget per stage.  A full queue refuses new work (:meth:`StageQueue.offer`
returns ``False``) — that refusal *is* the backpressure signal: the
caller defers the record and the admission controller reads queue
occupancy as one of its overload signals.

Items carry a deadline; a waiting item that breaches it is moved to the
front with a fresh deadline and an incremented attempt count — repairs
are retried and requeued, never silently abandoned.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

from repro.control.journal import OutageKey


class Stage(enum.Enum):
    """The four queued stages of the repair pipeline.

    Detection itself is not queued — the monitor observes every pair
    every round by design (missing an outage is worse than repairing it
    late); everything downstream of detection is.
    """

    ISOLATE = "isolate"
    VERIFY = "verify"
    RETRY = "retry"
    CHECK = "check"


@dataclass
class QueueItem:
    """One record's membership in one stage queue."""

    key: OutageKey
    #: sim time the record entered this stage's queue.
    enqueued: float
    #: breach => journaled timeout + move-to-front retry, never a drop.
    deadline: float
    #: times this item was requeued (deadline breaches + deferrals).
    attempts: int = 0


class StageQueue:
    """Bounded FIFO of repair records waiting for one pipeline stage."""

    def __init__(
        self, stage: Stage, capacity: int, deadline: float
    ) -> None:
        self.stage = stage
        self.capacity = capacity
        self.deadline = deadline
        self._items: "OrderedDict[OutageKey, QueueItem]" = OrderedDict()
        #: high-water mark of depth over the queue's life.
        self.peak = 0
        #: offers refused because the queue was full.
        self.refusals = 0
        #: deadline breaches (each one retried, none dropped).
        self.timeouts = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: OutageKey) -> bool:
        return key in self._items

    @property
    def occupancy(self) -> float:
        """Depth as a fraction of capacity (the watermark signal)."""
        return len(self._items) / self.capacity if self.capacity else 1.0

    def offer(self, key: OutageKey, now: float) -> bool:
        """Enqueue *key*; ``False`` (backpressure) when full.

        A key already queued is left in place and reported accepted.
        """
        if key in self._items:
            return True
        if len(self._items) >= self.capacity:
            self.refusals += 1
            return False
        self._items[key] = QueueItem(
            key=key, enqueued=now, deadline=now + self.deadline
        )
        self.peak = max(self.peak, len(self._items))
        return True

    def take(self, budget: int) -> List[QueueItem]:
        """Dequeue up to *budget* items, oldest first."""
        out: List[QueueItem] = []
        while self._items and len(out) < budget:
            _, item = self._items.popitem(last=False)
            out.append(item)
        return out

    def requeue(self, item: QueueItem, now: float) -> None:
        """Put a processed-but-unfinished item back at the tail."""
        item.attempts += 1
        item.deadline = now + self.deadline
        self._items[item.key] = item

    def discard(self, key: OutageKey) -> None:
        self._items.pop(key, None)

    def expire(self, now: float) -> List[QueueItem]:
        """Move deadline-breached items to the front; returns them.

        The breach means the stage's budget starved this item past its
        deadline; boosting it to the head gives it the next budget slot.
        The caller journals each breach so no wait ever goes unrecorded.
        """
        breached = [
            item for item in self._items.values() if now > item.deadline
        ]
        for item in reversed(breached):
            del self._items[item.key]
            item.attempts += 1
            item.deadline = now + self.deadline
            self._items[item.key] = item
            self._items.move_to_end(item.key, last=False)
            self.timeouts += 1
        return breached

    def keys(self) -> Tuple[OutageKey, ...]:
        return tuple(self._items.keys())
