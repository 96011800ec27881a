"""Tests for the ARQ reliability layer: loss-path accounting, retransmission
and timer hygiene on the SimClock.

The transport used to swallow loss silently: ``Endpoint.send`` ignored the
drop signal from ``Link.send`` (leaving the ``Message`` looking delivered
with a *negative* latency) and a timed transfer hard-crashed on a single
lost packet.  These tests pin the repaired semantics.
"""

import math

from repro.net import ArqConfig, Link, SimClock, connect
from repro.net.link import DuplexLink
from repro.obs import get_metrics


def _lossy_pair(loss_rate, seed=0, arq=None, **link_kwargs):
    clock = SimClock()
    link = DuplexLink(
        uplink=Link(clock, loss_rate=loss_rate, seed=seed, **link_kwargs),
        downlink=Link(clock, loss_rate=loss_rate, seed=seed + 1, **link_kwargs),
    )
    client, server = connect("c", "s", clock, link, arq=arq)
    return clock, link, client, server


class TestBestEffortLossAccounting:
    def test_dropped_messages_never_appear_delivered(self):
        clock, link, client, server = _lossy_pair(0.5, seed=0)
        sent = [client.send("frame", 100) for _ in range(200)]
        clock.run()
        n_dropped = sum(1 for m in sent if m.is_dropped)
        n_delivered = sum(1 for m in sent if m.is_delivered)
        assert n_dropped > 0 and n_delivered > 0
        assert n_dropped + n_delivered == len(sent)
        # Endpoint-side counters agree with per-message state.
        assert client.n_sent == len(sent)
        assert client.n_dropped == n_dropped
        assert server.n_received == n_delivered

    def test_dropped_latency_is_never_negative(self):
        """Regression: the old transport left ``delivered_at`` at 0.0 on a
        drop, so ``latency`` went negative once sim time advanced."""
        clock, link, client, server = _lossy_pair(0.5, seed=0, delay_s=0.01)
        clock.schedule(1.0, lambda: None)
        clock.run()  # advance sim time first
        sent = [client.send("frame", 100) for _ in range(50)]
        clock.run()
        for m in sent:
            assert m.latency >= 0.0
            if m.is_dropped:
                assert m.delivered_at is None
                assert m.latency == math.inf

    def test_endpoint_drops_agree_with_link_stats(self):
        """Best-effort messages ride the link exactly once, so endpoint
        drop counts and ``LinkStats.messages_dropped`` must match."""
        clock, link, client, server = _lossy_pair(0.3, seed=2)
        for _ in range(300):
            client.send("frame", 64)
        clock.run()
        assert client.n_dropped == link.uplink.stats.messages_dropped
        assert client.n_sent == 300
        assert server.n_received == link.uplink.stats.messages_sent

    def test_link_drop_counter_matches_endpoint_drops(self):
        metrics = get_metrics()
        was_enabled = metrics.enabled
        metrics.configure(True)
        metrics.reset()
        try:
            clock, link, client, server = _lossy_pair(0.3, seed=7)
            for _ in range(200):
                client.send("frame", 64)
            clock.run()
            snap = metrics.snapshot()["counters"]
            assert snap["net.link_drops"] == link.uplink.stats.messages_dropped
            assert snap["net.endpoint_drops"] == client.n_dropped
            assert snap["net.link_drops"] == snap["net.endpoint_drops"]
        finally:
            metrics.reset()
            metrics.configure(was_enabled)

    def test_on_dropped_callback_fires(self):
        clock, link, client, server = _lossy_pair(0.5, seed=0)
        dropped = []
        sent = [client.send("frame", 64, on_dropped=dropped.append)
                for _ in range(100)]
        clock.run()
        assert dropped
        assert dropped == [m for m in sent if m.is_dropped]
        assert len(dropped) == client.n_dropped


class TestReliableDelivery:
    def test_retransmission_delivers_under_loss(self):
        """Lossy uplink, clean downlink: every message must eventually be
        delivered AND acknowledged, at the cost of retransmissions."""
        clock = SimClock()
        link = DuplexLink(
            uplink=Link(clock, loss_rate=0.5, seed=0, delay_s=0.005),
            downlink=Link(clock, loss_rate=0.0, delay_s=0.005),
        )
        client, server = connect("c", "s", clock, link)
        sent = [client.send("data", 1000, reliable=True) for _ in range(50)]
        clock.run()
        assert all(m.is_delivered for m in sent)
        assert all(m.acked_at is not None for m in sent)
        assert client.retransmits > 0
        assert any(m.attempts > 1 for m in sent)

    def test_bidirectional_loss_still_delivers(self):
        clock, link, client, server = _lossy_pair(0.5, seed=0, delay_s=0.005)
        sent = [client.send("data", 1000, reliable=True) for _ in range(50)]
        clock.run()
        # Every message reaches the peer (an unlucky one may stay un-ACKed
        # when every ACK of every attempt is lost, but delivery holds).
        assert all(m.is_delivered for m in sent)
        assert client.retransmits > 0

    def test_delivery_is_exactly_once(self):
        """Lost ACKs force duplicate copies; the receiver must deliver
        (and dispatch the handler) only once per message."""
        clock, link, client, server = _lossy_pair(0.5, seed=1, delay_s=0.005)
        got = []
        server.on("data", lambda m: got.append(m.seq))
        sent = [client.send("data", 100, reliable=True) for _ in range(50)]
        clock.run()
        assert all(m.is_delivered for m in sent)
        assert sorted(got) == sorted(m.seq for m in sent)
        assert len(set(got)) == len(got)

    def test_retry_cap_drops_cleanly(self):
        arq = ArqConfig(initial_timeout_s=0.01, max_retries=2)
        clock, link, client, server = _lossy_pair(0.999, seed=0, arq=arq)
        dropped, delivered = [], []
        message = client.send(
            "data", 100, reliable=True, on_dropped=dropped.append,
            on_delivered=delivered.append,
        )
        clock.run()
        assert message.is_dropped
        assert message.attempts == 3          # first copy + 2 retries
        assert dropped == [message]
        assert delivered == [] and server.n_received == 0
        assert client.n_pending == 0

    def test_no_loss_costs_no_retransmission(self):
        clock, link, client, server = _lossy_pair(0.0)
        sent = [client.send("data", 100, reliable=True) for _ in range(20)]
        clock.run()
        assert all(m.is_delivered and m.attempts == 1 for m in sent)
        assert client.retransmits == 0
        assert server.acks_sent == 20

    def test_adaptive_timeout_no_spurious_retransmit_on_thin_pipe(self):
        """A large payload on a slow link takes seconds to transmit; the
        RTO must adapt instead of firing before the first copy lands."""
        clock = SimClock()
        link = DuplexLink(
            uplink=Link(clock, bandwidth_bps=8e6, delay_s=0.05),
            downlink=Link(clock, bandwidth_bps=8e6, delay_s=0.05),
        )
        client, server = connect("c", "s", clock, link)
        message = client.send("data", 4_000_000, reliable=True)  # ~4 s of tx
        clock.run()
        assert message.is_delivered
        assert message.attempts == 1
        assert client.retransmits == 0


class TestTimedTransferUnderLoss:
    """A reliable transfer timed the way Table 4 times it: from the first
    copy leaving the sender to the final ACK reaching it back."""

    @staticmethod
    def _transfer(clock, up, down, n_bytes):
        client, _ = connect("c", "s", clock, DuplexLink(up, down))
        message = client.send("transfer", n_bytes, reliable=True)
        clock.run()
        assert message.acked_at is not None
        return message.acked_at - message.sent_at

    def test_completes_via_retransmission_at_35_percent_loss(self):
        """loss_rate=0.35 must cost retransmissions, not a lost transfer."""
        clock = SimClock()
        up = Link(clock, bandwidth_bps=8e6, delay_s=0.05, loss_rate=0.35, seed=3)
        down = Link(clock, bandwidth_bps=8e6, delay_s=0.05, loss_rate=0.35, seed=4)
        rtts = [self._transfer(clock, up, down, 100_000) for _ in range(20)]
        assert all(rtt > 0 for rtt in rtts)
        assert up.stats.messages_dropped > 0  # loss actually happened
        # Retransmissions only add time: the lossless RTT is the floor.
        clean = self._transfer(
            clock, Link(clock, bandwidth_bps=8e6, delay_s=0.05),
            Link(clock, bandwidth_bps=8e6, delay_s=0.05), 100_000)
        assert clean <= sorted(rtts)[len(rtts) // 2]


class TestSimClockTimerHygiene:
    def test_retransmit_timer_rearm_cancel_purge_interplay(self):
        """Regression for the cancel/purge interplay ARQ leans on: a
        per-message timer that is rearmed (schedule new, cancel old)
        thousands of times must neither grow the heap unboundedly nor
        corrupt the cancelled-count when dead events pop via step()."""
        clock = SimClock()
        fired = []
        timer = clock.schedule(1e6, lambda: fired.append("timeout"))
        for i in range(2000):
            new_timer = clock.schedule(1e6 + i, lambda: fired.append("timeout"))
            clock.cancel(timer)
            timer = new_timer
            if i % 100 == 0:
                # Interleave live traffic so step() pops both kinds.
                clock.schedule(0.0001, lambda: fired.append("tick"))
                clock.run(until=clock.now + 0.001)
        assert fired.count("tick") == 20
        assert clock.pending() == 1   # exactly the live timer remains
        # The lazy purge kept the heap proportional to live events.
        assert len(clock._queue) < 200
        clock.cancel(timer)
        clock.run()
        assert "timeout" not in fired

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        clock = SimClock()
        event = clock.schedule(0.1, lambda: None)
        clock.schedule(0.2, lambda: None)   # still pending after the run
        clock.run(until=0.15)
        clock.cancel(event)  # already fired: must be a no-op
        assert clock.pending() == 1
        clock.run()
        assert clock.pending() == 0
