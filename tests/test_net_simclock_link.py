"""Tests for the discrete-event clock and shaped links."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    MBIT,
    PROFILE_BW_9_4,
    PROFILE_BW_18_7,
    PROFILE_DELAY_300MS,
    PROFILE_IDEAL,
    Link,
    SimClock,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_schedule_and_run(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(clock.now))
        clock.schedule(0.5, lambda: fired.append(clock.now))
        clock.run()
        assert fired == [0.5, 1.0]

    def test_fifo_among_equal_times(self):
        clock = SimClock()
        order = []
        clock.schedule(1.0, lambda: order.append("a"))
        clock.schedule(1.0, lambda: order.append("b"))
        clock.run()
        assert order == ["a", "b"]

    def test_run_until(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(1))
        clock.schedule(5.0, lambda: fired.append(5))
        clock.run(until=2.0)
        assert fired == [1]
        assert clock.now == 2.0
        clock.run()
        assert fired == [1, 5]

    def test_cancel(self):
        clock = SimClock()
        fired = []
        event = clock.schedule(1.0, lambda: fired.append(1))
        clock.cancel(event)
        clock.run()
        assert fired == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimClock().schedule(-0.1, lambda: None)

    def test_nested_scheduling(self):
        clock = SimClock()
        fired = []

        def outer():
            clock.schedule(1.0, lambda: fired.append(clock.now))

        clock.schedule(1.0, outer)
        clock.run()
        assert fired == [2.0]

    def test_runaway_guard(self):
        clock = SimClock()

        def loop():
            clock.schedule(0.001, loop)

        clock.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            clock.run(max_events=100)

    def test_cancelled_events_lazily_purged(self):
        """Long-running sims that rearm timers must not grow the heap.

        Regression: cancel() used to only flag events, leaving them in
        the heap until their timestamp popped, and the live count walked the
        whole queue.  Cancel far-future timers en masse and check the
        heap shrinks to the live events.
        """
        clock = SimClock()
        fired = []
        # One live event plus a large batch of soon-cancelled timers,
        # as a per-frame timeout that is rearmed every frame produces.
        clock.schedule(1.0, lambda: fired.append(clock.now))
        timers = [clock.schedule(1e6 + i, lambda: None) for i in range(5000)]
        for event in timers:
            clock.cancel(event)
        # The bulk purge ran: the heap no longer holds the dead timers,
        # and the cancelled count was reset with it.
        assert len(clock._queue) < len(timers) // 2
        assert len(clock._queue) - clock._n_cancelled == 1
        clock.run(until=2.0)
        assert fired == [1.0]
        assert not clock.step()

    def test_double_cancel_is_idempotent(self):
        clock = SimClock()
        live = clock.schedule(1.0, lambda: None)
        event = clock.schedule(2.0, lambda: None)
        clock.cancel(event)
        clock.cancel(event)
        assert clock._n_cancelled == 1
        clock.run()
        assert clock._n_cancelled == 0 and not clock._queue
        clock.cancel(live)  # cancelling an already-fired event is harmless
        assert clock._n_cancelled == 0

    def test_interleaved_cancel_preserves_order(self):
        clock = SimClock()
        order = []
        events = [
            clock.schedule(t, lambda t=t: order.append(t))
            for t in (3.0, 1.0, 2.0, 4.0)
        ]
        clock.cancel(events[2])  # drop t=2.0
        clock.run()
        assert order == [1.0, 3.0, 4.0]


class TestLink:
    def test_transmission_delay(self):
        clock = SimClock()
        link = Link(clock, bandwidth_bps=8e6)  # 1 MB/s
        assert link.transmission_delay(1_000_000) == pytest.approx(1.0)

    def test_unconstrained_link_is_instant(self):
        clock = SimClock()
        link = Link(clock, bandwidth_bps=None, delay_s=0.01)
        assert link.transmission_delay(10**9) == 0.0
        assert link.one_way_latency(10**9) == pytest.approx(0.01)

    def test_delivery_time(self):
        clock = SimClock()
        link = Link(clock, bandwidth_bps=8e6, delay_s=0.1)
        arrivals = []
        link.send(1_000_000, lambda: arrivals.append(clock.now))
        clock.run()
        assert arrivals == [pytest.approx(1.1)]

    def test_fifo_queueing(self):
        clock = SimClock()
        link = Link(clock, bandwidth_bps=8e6)
        arrivals = []
        link.send(1_000_000, lambda: arrivals.append(("a", clock.now)))
        link.send(1_000_000, lambda: arrivals.append(("b", clock.now)))
        clock.run()
        assert arrivals[0] == ("a", pytest.approx(1.0))
        assert arrivals[1] == ("b", pytest.approx(2.0))
        assert link.stats.total_queue_delay > 0

    def test_priority_bypass(self):
        clock = SimClock()
        link = Link(clock, bandwidth_bps=8e6)
        arrivals = []
        link.send(8_000_000, lambda: arrivals.append("big"))
        link.send(1_000, lambda: arrivals.append("tiny"), priority_bypass=True)
        clock.run()
        assert arrivals[0] == "tiny"

    def test_loss(self):
        clock = SimClock()
        link = Link(clock, bandwidth_bps=None, loss_rate=0.5, seed=0)
        delivered = []
        for _ in range(200):
            link.send(100, lambda: delivered.append(1))
        clock.run()
        assert 60 <= len(delivered) <= 140
        assert link.stats.messages_dropped == 200 - len(delivered)

    def test_invalid_params(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            Link(clock, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(clock, delay_s=-1)
        with pytest.raises(ValueError):
            Link(clock, loss_rate=1.0)

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=20, deadline=None)
    def test_latency_monotone_in_size(self, n_bytes):
        clock = SimClock()
        link = Link(clock, bandwidth_bps=10e6, delay_s=0.05)
        assert link.one_way_latency(n_bytes) >= link.one_way_latency(0)


class TestShapingProfiles:
    def test_paper_profiles_exist(self):
        assert PROFILE_BW_18_7.bandwidth_bps == pytest.approx(18.7 * MBIT)
        assert PROFILE_BW_9_4.bandwidth_bps == pytest.approx(9.4 * MBIT)
        assert PROFILE_DELAY_300MS.delay_s == pytest.approx(0.300)
        assert PROFILE_IDEAL.bandwidth_bps is None

    def test_build_duplex(self):
        clock = SimClock()
        link = PROFILE_DELAY_300MS.build(clock)
        assert link.uplink.delay_s + link.downlink.delay_s == pytest.approx(0.6)

    def test_18_7_mbit_rationale(self):
        # 18.7 Mb/s is the minimum bandwidth for the largest map (Table 1:
        # 38.81 MB... actually sized to send within 5 s; check ~11.7 MB in 5 s)
        clock = SimClock()
        link = PROFILE_BW_18_7.build(clock)
        five_seconds_worth = 18.7 * MBIT * 5 / 8
        assert link.uplink.transmission_delay(int(five_seconds_worth)) == pytest.approx(
            5.0, rel=1e-6
        )
