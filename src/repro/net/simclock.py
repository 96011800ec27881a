"""Discrete-event simulation core: a virtual clock and event queue.

End-to-end latency experiments (Table 4, Fig. 12) must model hardware
we don't have — 10 GbE links, `tc` delays, server GPUs.  All of those
express naturally as events on a simulated clock.  The simulator is
deterministic: same inputs, same event order (FIFO among equal
timestamps).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    in_queue: bool = field(default=True, compare=False)


class SimClock:
    """A simulated clock with scheduled callbacks.

    Cancelled events are flagged rather than removed (heap deletion is
    O(n)); they are skipped on pop and lazily purged in bulk once they
    outnumber live events, so long-running sims that cancel heavily
    (e.g. timeout timers rearmed every frame) keep the heap
    proportional to *live* events.
    """

    #: Lazy purge triggers only beyond this many cancelled entries, so
    #: small simulations never pay the rebuild.
    PURGE_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_Event] = []
        self._seq = itertools.count()
        self._n_cancelled = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> _Event:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        event = _Event(self._now + delay, next(self._seq), callback)
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> _Event:
        return self.schedule(time - self._now, callback)

    def cancel(self, event: _Event) -> None:
        if event.cancelled or not event.in_queue:
            return
        event.cancelled = True
        self._n_cancelled += 1
        if (
            self._n_cancelled >= self.PURGE_MIN_CANCELLED
            and self._n_cancelled * 2 > len(self._queue)
        ):
            self._purge()

    def _purge(self) -> None:
        """Drop every cancelled entry and restore the heap invariant."""
        live, dead = [], []
        for event in self._queue:
            (dead if event.cancelled else live).append(event)
        for event in dead:
            event.in_queue = False
        self._queue = live
        heapq.heapify(self._queue)
        self._n_cancelled = 0

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            event.in_queue = False
            if event.cancelled:
                self._n_cancelled -= 1
                continue
            self._now = event.time
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run events until the queue drains or the clock passes ``until``."""
        executed = 0
        while self._queue:
            if until is not None and self._queue[0].time > until:
                self._now = until
                return
            if not self.step():
                return
            executed += 1
            if executed > max_events:
                raise RuntimeError("simulation exceeded event budget (runaway loop?)")
