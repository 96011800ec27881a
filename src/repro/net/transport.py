"""Framed message transport over simulated links, with ARQ reliability.

A pair of :class:`Endpoint`\\ s over a :class:`~repro.net.link.DuplexLink`
delivers typed, framed messages.  Two delivery modes exist:

* **best-effort** (default) — the message rides the link once; if the
  link drops it, the :class:`Message` is marked ``dropped`` and the
  sender's ``on_dropped`` callback fires.  This models the paper's
  frame-upload stream: a stale camera frame is worthless, the client's
  IMU bridges the gap (§4.2.2, Alg. 1) instead of retransmitting.
* **reliable** (``reliable=True``) — stop-and-wait ARQ per message:
  the receiver returns an ACK, the sender arms a retransmission timer
  on the :class:`~repro.net.simclock.SimClock` (exponential backoff,
  configurable retry cap) and re-sends until acknowledged or the cap
  is hit.  Duplicate copies (lost ACKs) deliver exactly once.

A message may carry a frame-lifecycle trace context (``send(...,
trace=ctx)``): the rider costs :data:`TRACE_CONTEXT_BYTES` on the wire
and survives retransmits and receiver-side dedup because the same
:class:`Message` object is re-sent — every delivery, retransmission and
terminal drop is then recorded as a span/instant on that trace, so the
per-frame waterfall shows the uplink exactly as the ARQ saw it.

The SLAM-Share session sends best-effort (frames up, poses down); the
Edge-SLAM-style baseline ships its map upload and partial-map download
reliably, as the paper's TCP transfers (Table 4 rows 4 and 8).

An endpoint keeps counters, not messages: once a message is handled or
dropped, nothing in the transport holds it.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..obs import get_metrics, get_tracer
from ..obs.trace import TraceContext
from .link import DuplexLink, Link
from .simclock import SimClock

FRAME_HEADER_BYTES = 40       # type tag + length + seq + timestamps
ACK_BYTES = 64                # TCP ACK-ish
TRACE_CONTEXT_BYTES = 16      # trace rider: two u64s (trace_id, span_id)
ARQ_BACKOFF = 2.0             # retransmission slack grows by this per attempt

#: Message lifecycle states.
MSG_PENDING = "pending"
MSG_DELIVERED = "delivered"
MSG_DROPPED = "dropped"

_tracer = get_tracer()
_metrics = get_metrics()
_messages_sent = _metrics.counter(
    "net.messages_sent", "framed messages sent by endpoints"
)
_bytes_sent = _metrics.counter(
    "net.bytes_sent", "wire bytes sent by endpoints"
)
_endpoint_drops = _metrics.counter(
    "net.endpoint_drops", "messages terminally dropped by endpoints"
)
_retransmits = _metrics.counter(
    "net.retransmits", "ARQ retransmission attempts"
)
_acks_sent = _metrics.counter(
    "net.acks_sent", "ARQ acknowledgements sent"
)
_message_latency_hist = _metrics.histogram(
    "net.message_latency_ms", "send-to-delivery latency (sim)", unit="ms"
)
_rtt_hist = _metrics.histogram(
    "net.rtt_ms", "send-to-ACK round-trip time (sim)", unit="ms"
)


@dataclass(frozen=True)
class ArqConfig:
    """Stop-and-wait ARQ knobs for reliable sends.

    The retransmission timer is *adaptive*: it starts from the link's
    own delivery estimate (current queue backlog + transmission +
    propagation, plus the ACK's return trip) so a large payload on a
    thin pipe never triggers a spurious retransmission, then adds
    ``initial_timeout_s * ARQ_BACKOFF**attempt`` of slack.  ACKs are
    tiny control packets and always bypass the link's FIFO.
    """

    initial_timeout_s: float = 0.05
    max_retries: int = 10           # retransmissions after the first copy


@dataclass
class Message:
    """A framed application message with an explicit delivery state."""

    msg_type: str
    payload_bytes: int
    payload: Any = None
    sent_at: float = 0.0
    delivered_at: Optional[float] = None
    acked_at: Optional[float] = None
    seq: int = -1
    reliable: bool = False
    status: str = MSG_PENDING
    attempts: int = 0
    trace: Optional[TraceContext] = None

    @property
    def wire_bytes(self) -> int:
        extra = TRACE_CONTEXT_BYTES if self.trace is not None else 0
        return self.payload_bytes + FRAME_HEADER_BYTES + extra

    @property
    def is_dropped(self) -> bool:
        return self.status == MSG_DROPPED

    @property
    def latency(self) -> float:
        """Send-to-delivery latency; ``inf`` until delivered.

        Never negative: an undelivered (pending or dropped) message has
        no delivery time rather than a bogus ``0.0`` one.
        """
        if self.delivered_at is None:
            return math.inf
        return self.delivered_at - self.sent_at


@dataclass
class _PendingSend:
    """Sender-side ARQ bookkeeping for one in-flight reliable message."""

    message: Message
    priority: bool = False
    timer: Optional[Any] = None        # SimClock event for the retransmit
    on_delivered: Optional[Callable[[Message], None]] = None
    on_dropped: Optional[Callable[[Message], None]] = None


class Endpoint:
    """One side of a channel: registers handlers, sends messages.

    ``n_sent`` / ``n_received`` / ``n_dropped`` count the application
    messages this endpoint originated, delivered, and terminally lost;
    ``bytes_sent`` sums the wire bytes of the first copy of each sent
    message.  ACKs are control traffic: they consume link bytes but are
    never counted there nor dispatch handlers.
    """

    def __init__(
        self, name: str, clock: SimClock, arq: Optional[ArqConfig] = None
    ) -> None:
        self.name = name
        self.clock = clock
        self.arq = arq or ArqConfig()
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._peer: Optional["Endpoint"] = None
        self._tx_link: Optional[Link] = None
        self.n_sent = 0
        self.n_received = 0
        self.n_dropped = 0
        self.bytes_sent = 0
        self.retransmits = 0
        self.acks_sent = 0
        self._next_seq = itertools.count()
        self._pending: Dict[int, _PendingSend] = {}
        self._delivered_seqs: set = set()   # receiver-side duplicate filter

    def on(self, msg_type: str, handler: Callable[[Message], None]) -> None:
        self._handlers[msg_type] = handler

    # ------------------------------------------------------------- sending
    def send(
        self,
        msg_type: str,
        payload_bytes: int,
        payload: Any = None,
        priority: bool = False,
        reliable: bool = False,
        on_delivered: Optional[Callable[[Message], None]] = None,
        on_dropped: Optional[Callable[[Message], None]] = None,
        trace: Optional[TraceContext] = None,
    ) -> Message:
        """Send a framed message to the peer endpoint.

        ``reliable=True`` engages ARQ (ACK + retransmission until the
        retry cap); otherwise a link drop terminally drops the message.
        ``on_delivered`` fires when the peer receives the message,
        ``on_dropped`` when it is terminally lost.  ``trace`` attaches
        a frame-lifecycle trace context that rides every copy of the
        message (costing :data:`TRACE_CONTEXT_BYTES` on the wire).
        """
        if self._peer is None or self._tx_link is None:
            raise RuntimeError(f"endpoint {self.name} is not connected")
        message = Message(
            msg_type,
            payload_bytes,
            payload,
            sent_at=self.clock.now,
            seq=next(self._next_seq),
            reliable=reliable,
            trace=trace,
        )
        self.n_sent += 1
        self.bytes_sent += message.wire_bytes
        if _metrics.enabled:
            _messages_sent.inc()
            _bytes_sent.inc(message.wire_bytes)
        entry = _PendingSend(
            message, priority, on_delivered=on_delivered, on_dropped=on_dropped
        )
        if reliable:
            self._pending[message.seq] = entry
        self._transmit(entry)
        return message

    def _transmit(self, entry: _PendingSend) -> None:
        """Put one copy of the message on the wire (first send or re-send)."""
        message = entry.message
        message.attempts += 1
        if message.attempts > 1:
            self.retransmits += 1
            _retransmits.inc()
            if _tracer.enabled and message.trace is not None:
                _tracer.instant(
                    f"net.retransmit.{message.msg_type}", ctx=message.trace,
                    tid="net", seq=message.seq, attempt=message.attempts,
                )

        def deliver() -> None:
            self._peer._receive(message, entry)

        now = self.clock.now
        scheduled = self._tx_link.send(
            message.wire_bytes, deliver, priority_bypass=entry.priority
        )
        lost = scheduled == math.inf
        if not message.reliable:
            if lost:
                self._terminate(entry)
            return
        # Reliable: arm the retransmission timer whether or not this copy
        # survived — the sender cannot observe the loss, only the missing
        # ACK.  The timeout adapts to the link's own delivery estimate so
        # big payloads on thin pipes don't retransmit spuriously.
        if lost:
            data_s = self._tx_link.delivery_estimate(message.wire_bytes)
        else:
            data_s = scheduled - now
        ack_link = self._peer._tx_link if self._peer is not None else None
        ack_s = ack_link.one_way_latency(ACK_BYTES) if ack_link else 0.0
        slack = self.arq.initial_timeout_s * (
            ARQ_BACKOFF ** (message.attempts - 1)
        )
        entry.timer = self.clock.schedule(
            data_s + ack_s + slack, lambda: self._on_timeout(entry)
        )

    def _on_timeout(self, entry: _PendingSend) -> None:
        entry.timer = None
        message = entry.message
        if message.seq not in self._pending:
            return                       # ACKed in the meantime
        if message.attempts > self.arq.max_retries:
            self._pending.pop(message.seq, None)
            self._terminate(entry)
            return
        self._transmit(entry)

    def _terminate(self, entry: _PendingSend) -> None:
        """Mark a message terminally dropped and notify the sender."""
        message = entry.message
        if message.status != MSG_PENDING:
            return
        message.status = MSG_DROPPED
        self.n_dropped += 1
        _endpoint_drops.inc()
        if _tracer.enabled and message.trace is not None:
            _tracer.instant(
                f"net.drop.{message.msg_type}", ctx=message.trace, tid="net",
                seq=message.seq, attempts=message.attempts,
            )
        if entry.on_dropped is not None:
            entry.on_dropped(message)

    # ----------------------------------------------------------- receiving
    def _receive(self, message: Message, entry: _PendingSend) -> None:
        """A copy of ``message`` arrived on this endpoint's RX side."""
        if message.is_dropped:
            # The sender already gave up on this message (retry cap hit
            # while a stale copy was still in flight); the connection has
            # moved on — discard, a terminal state never flips.
            return
        if message.reliable:
            self._send_ack(message, entry)
            if message.seq in self._delivered_seqs:
                return                   # duplicate copy (its ACK was lost)
            self._delivered_seqs.add(message.seq)
        message.delivered_at = self.clock.now
        message.status = MSG_DELIVERED
        _message_latency_hist.record(message.latency * 1e3)
        if _tracer.enabled and message.trace is not None:
            _tracer.sim_event(
                f"net.{message.msg_type}", message.latency * 1e3,
                start_s=message.sent_at, ctx=message.trace, tid="net",
                seq=message.seq, attempts=message.attempts,
                bytes=message.wire_bytes,
            )
        self.n_received += 1
        if entry.on_delivered is not None:
            entry.on_delivered(message)
        handler = self._handlers.get(message.msg_type)
        if handler is not None:
            handler(message)

    def _send_ack(self, message: Message, entry: _PendingSend) -> None:
        sender = self._peer
        if sender is None or self._tx_link is None:
            return
        self.acks_sent += 1
        _acks_sent.inc()
        self._tx_link.send(
            ACK_BYTES,
            lambda: sender._on_ack(message, entry),
            priority_bypass=True,
        )

    def _on_ack(self, message: Message, entry: _PendingSend) -> None:
        pending = self._pending.pop(message.seq, None)
        if pending is None:
            return                       # duplicate ACK
        if pending.timer is not None:
            self.clock.cancel(pending.timer)
            pending.timer = None
        message.acked_at = self.clock.now
        _rtt_hist.record((message.acked_at - message.sent_at) * 1e3)


def connect(
    client_name: str,
    server_name: str,
    clock: SimClock,
    link: DuplexLink,
    arq: Optional[ArqConfig] = None,
) -> tuple:
    """Create a connected (client, server) endpoint pair over a link."""
    client = Endpoint(client_name, clock, arq)
    server = Endpoint(server_name, clock, arq)
    client._peer = server
    client._tx_link = link.uplink
    server._peer = client
    server._tx_link = link.downlink
    return client, server

