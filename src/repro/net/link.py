"""Point-to-point links: bandwidth, propagation delay, loss, queueing.

A :class:`Link` models one direction of a network path the way `tc`
(netem + tbf) shapes it in the paper's testbed (§5.1): messages are
serialized onto the wire at ``bandwidth_bps`` (transmission delay, with
FIFO queueing behind earlier messages), then experience a fixed
``delay_s`` (propagation), with optional random loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..obs import get_metrics
from .simclock import SimClock

_metrics = get_metrics()
_link_bytes = _metrics.counter("net.link_bytes", "bytes placed on links")
_link_messages = _metrics.counter("net.link_messages", "messages placed on links")
_link_drops = _metrics.counter("net.link_drops", "messages lost on links")
_queue_delay_hist = _metrics.histogram(
    "net.queue_delay_ms", "link FIFO queueing delay (sim)", unit="ms"
)


@dataclass
class LinkStats:
    messages_sent: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    total_queue_delay: float = 0.0


class Link:
    """One direction of a shaped network path."""

    def __init__(
        self,
        clock: SimClock,
        bandwidth_bps: Optional[float] = None,
        delay_s: float = 0.0,
        loss_rate: float = 0.0,
        seed: int = 5,
    ) -> None:
        """``bandwidth_bps=None`` means an unconstrained (10 GbE-class) link."""
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive (or None)")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.clock = clock
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.loss_rate = loss_rate
        self.stats = LinkStats()
        self._rng = np.random.default_rng(seed)
        self._wire_free_at = 0.0

    def transmission_delay(self, n_bytes: int) -> float:
        if self.bandwidth_bps is None:
            return 0.0
        return 8.0 * n_bytes / self.bandwidth_bps

    def send(
        self,
        n_bytes: int,
        on_delivered: Callable[[], None],
        priority_bypass: bool = False,
    ) -> float:
        """Enqueue a message; returns its (scheduled) delivery time.

        ``priority_bypass`` skips the FIFO queue (used to model, e.g.,
        tiny pose updates on a prioritized queue); normal messages wait
        behind earlier traffic on the same link.
        """
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.stats.messages_dropped += 1
            _link_drops.inc()
            return float("inf")
        now = self.clock.now
        tx = self.transmission_delay(n_bytes)
        if priority_bypass or self.bandwidth_bps is None:
            start = now
        else:
            start = max(now, self._wire_free_at)
            self._wire_free_at = start + tx
        queue_delay = start - now
        delivery = start + tx + self.delay_s
        self.stats.messages_sent += 1
        self.stats.bytes_sent += n_bytes
        self.stats.total_queue_delay += queue_delay
        if _metrics.enabled:
            _link_messages.inc()
            _link_bytes.inc(n_bytes)
            _queue_delay_hist.record(queue_delay * 1e3)
        self.clock.schedule_at(delivery, on_delivered)
        return delivery

    def one_way_latency(self, n_bytes: int) -> float:
        """Idle-link latency for a message of this size (no queueing)."""
        return self.transmission_delay(n_bytes) + self.delay_s

    def delivery_estimate(self, n_bytes: int) -> float:
        """Expected time-to-delivery if a message were enqueued *now*.

        Includes the current FIFO backlog, so ARQ retransmission timers
        can adapt to congestion instead of firing spuriously.
        """
        backlog = max(0.0, self._wire_free_at - self.clock.now)
        return backlog + self.transmission_delay(n_bytes) + self.delay_s


@dataclass
class DuplexLink:
    """A bidirectional path: independent uplink and downlink shapers."""

    uplink: Link
    downlink: Link

    @staticmethod
    def create(
        clock: SimClock,
        uplink_bps: Optional[float] = None,
        downlink_bps: Optional[float] = None,
        delay_s: float = 0.0,
        loss_rate: float = 0.0,
        seed: int = 5,
    ) -> "DuplexLink":
        return DuplexLink(
            uplink=Link(clock, uplink_bps, delay_s, loss_rate, seed),
            downlink=Link(clock, downlink_bps, delay_s, loss_rate, seed + 1),
        )
