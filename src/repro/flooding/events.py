"""Event queue primitives for the discrete-event simulator.

A simulation is a totally ordered stream of :class:`Event` objects.
Ordering is ``(time, priority, sequence)``: the sequence number breaks
ties deterministically in scheduling order, which makes every run
bit-reproducible for a fixed seed — a hard requirement for the
experiment harness.

The queue heaps ``(time, priority, sequence, event)`` tuples rather
than the events themselves: the sequence is unique, so a comparison
never reaches the event and every heap comparison runs in C.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import SchedulingError


@dataclass
class Event:
    """One scheduled callback.

    Attributes
    ----------
    time:
        Simulated time at which the event fires.
    priority:
        Secondary key; lower fires first at equal times.  Failure events
        use a negative priority so a crash at time t beats a message
        delivery at time t (the conservative adversary).
    sequence:
        Scheduling-order tie-breaker (assigned by the queue).
    action:
        Zero-argument callable executed when the event fires.
    label:
        Debug tag.  The network's per-message and per-timer events use
        the constant tags ``"msg"`` and ``"timer"``.
    """

    time: float
    priority: int
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time``; returns the (cancellable) event.

        Raises
        ------
        SchedulingError
            If ``time`` is negative or not finite.
        """
        if not (time >= 0):  # also rejects NaN
            raise SchedulingError(f"cannot schedule at time {time!r}")
        sequence = next(self._counter)
        event = Event(time, priority, sequence, action, label)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def pop(self) -> Optional[Event]:
        """Return the next non-cancelled event, or ``None`` when drained."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
