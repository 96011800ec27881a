"""Adaptive client<->server offloading: controller, manager, session.

Covers the PR's tentpole behaviors: hysteresis (offload high / return
low thresholds), cooldown and flap suppression, SLO edge-event driven
transitions, shed-horizon expiry, the reliable handoff message flow
(placement flips at delivery, IMU anchor rides along, zero frames
dropped), overload degradation to on-device tracking, and the
would-be-placement trace emitted even under static policies.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    ClientScenario,
    OffloadConfig,
    OffloadController,
    OffloadManager,
    PLACEMENT_CLIENT,
    PLACEMENT_SERVER,
    PlacementDecision,
    SlamShareConfig,
    SlamShareSession,
)
from repro.datasets import euroc_dataset
from repro.gpu.device import CpuCostModel
from repro.net.tc import PROFILE_DELAY_300MS
from repro.obs import get_tracer

STRONG_CPU = CpuCostModel(pixel_ns=70.0, pair_ns=40.0,
                          feature_match_ns=1500.0)


def _slo_event(kind: str, name: str = "frame.p95_ms"):
    """A minimal breach/recover edge (controller reads kind + spec name)."""
    return SimpleNamespace(
        kind=kind, status=SimpleNamespace(spec=SimpleNamespace(name=name)))


def _adaptive(**overrides) -> OffloadController:
    config = OffloadConfig(policy="adaptive", **overrides)
    return OffloadController(client_id=0, config=config)


def _feed_rtt(ctrl: OffloadController, rtt_ms: float, t: float,
              n: int = None) -> None:
    for i in range(n or ctrl.config.min_samples):
        ctrl.observe_rtt(rtt_ms, t + 0.01 * i)


class TestOffloadConfig:
    def test_defaults_are_static_server(self):
        config = OffloadConfig()
        assert config.policy == "static-server"
        assert config.initial_placement == PLACEMENT_SERVER
        assert not config.is_adaptive

    def test_static_client_initial_placement(self):
        assert (OffloadConfig(policy="static-client").initial_placement
                == PLACEMENT_CLIENT)

    @pytest.mark.parametrize("bad", [
        {"policy": "cloud"},
        {"rtt_high_ms": 40.0, "rtt_low_ms": 45.0},
        {"load_high": 0.4, "load_low": 0.5},
        {"cooldown_s": -1.0},
        {"min_samples": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            OffloadConfig(**bad)


class TestControllerHysteresis:
    def test_offloads_when_rtt_exceeds_high(self):
        ctrl = _adaptive()
        _feed_rtt(ctrl, 200.0, t=1.0)
        decision = ctrl.decide(t=1.1, server_load=0.0)
        assert decision is not None
        assert decision.placement == PLACEMENT_CLIENT
        assert decision.reason == "rtt"

    def test_no_decision_below_min_samples(self):
        ctrl = _adaptive()
        ctrl.observe_rtt(500.0, 1.0)
        assert ctrl.decide(t=1.1, server_load=0.0) is None

    def test_no_return_in_hysteresis_band(self):
        """RTT between low and high: a client-placed tracker stays put
        (that gap is exactly what prevents flapping)."""
        ctrl = _adaptive()
        ctrl.placement = PLACEMENT_CLIENT
        _feed_rtt(ctrl, 60.0, t=10.0)   # 45 < 60 < 80
        assert ctrl.decide(t=10.1, server_load=0.0) is None

    def test_returns_only_when_all_signals_healthy(self):
        ctrl = _adaptive()
        ctrl.placement = PLACEMENT_CLIENT
        ctrl.last_change_t = 0.0
        _feed_rtt(ctrl, 20.0, t=10.0)
        decision = ctrl.decide(t=10.1, server_load=0.1)
        assert decision is not None
        assert decision.placement == PLACEMENT_SERVER
        assert decision.reason == "recovered"
        # Same RTT but elevated load: stay on the device.
        assert ctrl.decide(t=10.2, server_load=0.6) is None

    def test_load_triggers_offload(self):
        ctrl = _adaptive()
        _feed_rtt(ctrl, 10.0, t=1.0)
        decision = ctrl.decide(t=1.1, server_load=0.9)
        assert decision is not None and decision.reason == "load"

    def test_shed_fraction_triggers_offload(self):
        ctrl = _adaptive()
        for i in range(6):
            ctrl.observe_admission(i % 2 == 0, t=1.0 + 0.1 * i)  # 50% shed
        decision = ctrl.decide(t=1.7, server_load=0.0)
        assert decision is not None and decision.reason == "shed"

    def test_shed_samples_expire_after_horizon(self):
        """Once tracking leaves the server no admission samples arrive;
        old sheds must expire or the client could never return."""
        ctrl = _adaptive()
        for i in range(8):
            ctrl.observe_admission(False, t=1.0 + 0.1 * i)
        assert ctrl.shed_fraction(t=2.0) == 1.0
        horizon = ctrl.config.shed_horizon_s
        assert ctrl.shed_fraction(t=2.0 + horizon + 1.0) is None


class TestControllerDamping:
    def test_cooldown_suppresses_consecutive_moves(self):
        ctrl = _adaptive(cooldown_s=2.0)
        _feed_rtt(ctrl, 200.0, t=1.0)
        decision = ctrl.decide(t=1.1, server_load=0.0)
        ctrl.commit(decision, t=1.1)
        # Immediately healthy again — but the cooldown holds placement.
        _feed_rtt(ctrl, 10.0, t=1.2, n=ctrl.config.rtt_window)
        assert ctrl.in_cooldown(2.0)
        assert ctrl.decide(t=2.0, server_load=0.0) is None
        assert ctrl.decide(t=3.2, server_load=0.0) is not None

    def test_no_decision_while_handoff_in_flight(self):
        ctrl = _adaptive()
        _feed_rtt(ctrl, 200.0, t=1.0)
        ctrl.begin(PLACEMENT_CLIENT)
        assert ctrl.decide(t=1.1, server_load=0.0) is None

    def test_flapping_link_commits_bounded_by_cooldown(self):
        """An RTT square wave flipping every 0.25 s for 10 s: committed
        placement changes are bounded by duration/cooldown, not by the
        flap rate."""
        ctrl = _adaptive(cooldown_s=2.0)
        t, commits = 0.0, 0
        while t < 10.0:
            bad = int(t / 0.25) % 2 == 0
            ctrl.observe_rtt(600.0 if bad else 10.0, t)
            decision = ctrl.decide(t, server_load=0.0)
            if decision is not None:
                ctrl.commit(decision, t)
                commits += 1
            t += 0.05
        assert commits <= 10.0 / 2.0 + 1

    def test_abort_arms_cooldown(self):
        ctrl = _adaptive(cooldown_s=2.0)
        ctrl.begin(PLACEMENT_CLIENT)
        ctrl.abort(t=5.0)
        assert ctrl.pending is None
        assert ctrl.placement == PLACEMENT_SERVER
        assert ctrl.in_cooldown(6.9)

    def test_static_policies_never_decide(self):
        for policy in ("static-server", "static-client"):
            ctrl = OffloadController(0, OffloadConfig(policy=policy))
            _feed_rtt(ctrl, 900.0, t=1.0)
            ctrl.on_slo_event(_slo_event("breach"))
            assert ctrl.decide(t=1.1, server_load=1.0) is None


class TestSloDrivenTransitions:
    def test_breach_triggers_offload(self):
        ctrl = _adaptive()
        _feed_rtt(ctrl, 10.0, t=1.0)     # link itself is fine
        ctrl.on_slo_event(_slo_event("breach"))
        decision = ctrl.decide(t=1.1, server_load=0.0)
        assert decision is not None
        assert decision.placement == PLACEMENT_CLIENT
        assert decision.reason == "slo"

    def test_recover_enables_return(self):
        ctrl = _adaptive()
        ctrl.on_slo_event(_slo_event("breach"))
        decision = ctrl.decide(t=1.1, server_load=0.0)
        assert decision is not None and decision.reason == "slo"
        ctrl.commit(decision, t=1.1)
        _feed_rtt(ctrl, 10.0, t=10.0)
        # Still breached: no return, even after the cooldown.
        assert ctrl.decide(t=10.0, server_load=0.0) is None
        ctrl.on_slo_event(_slo_event("recover"))
        decision = ctrl.decide(t=10.1, server_load=0.0)
        assert decision is not None
        assert decision.placement == PLACEMENT_SERVER

    def test_distinct_slos_tracked_independently(self):
        ctrl = _adaptive()
        ctrl.on_slo_event(_slo_event("breach", "frame.p95_ms"))
        ctrl.on_slo_event(_slo_event("breach", "frames.shed_rate"))
        ctrl.on_slo_event(_slo_event("recover", "frame.p95_ms"))
        assert ctrl.slo_breached          # shed_rate still breached

    def test_shadow_decision_under_static_policy(self):
        ctrl = OffloadController(0, OffloadConfig())
        _feed_rtt(ctrl, 600.0, t=1.0)
        assert ctrl.shadow_decision(1.1, server_load=0.0) == PLACEMENT_CLIENT
        ctrl2 = OffloadController(1, OffloadConfig())
        assert ctrl2.shadow_decision(1.1, server_load=0.0) == PLACEMENT_SERVER


class TestOffloadManager:
    def test_ledger_commit_and_abort(self):
        manager = OffloadManager(OffloadConfig(policy="adaptive"))
        decision = PlacementDecision(0, PLACEMENT_CLIENT, "rtt", 1.0)
        record = manager.begin_handoff(decision, imu_anchor_ts=0.9)
        assert record.src == PLACEMENT_SERVER
        assert record.dst == PLACEMENT_CLIENT
        assert record.imu_anchor_ts == 0.9
        assert not record.committed
        assert manager.controller(0).pending == PLACEMENT_CLIENT
        manager.commit_handoff(record, t=1.3)
        assert record.committed and record.committed_at == 1.3
        assert manager.placement(0) == PLACEMENT_CLIENT
        # A later return attempt that dies on the link.
        back = manager.begin_handoff(
            PlacementDecision(0, PLACEMENT_SERVER, "recovered", 5.0),
            imu_anchor_ts=4.9)
        manager.abort_handoff(back, t=5.5)
        assert back.aborted and not back.committed
        assert manager.placement(0) == PLACEMENT_CLIENT
        summary = manager.summary()
        assert summary["handoffs"] == 1
        assert summary["handoffs_aborted"] == 1
        assert summary["reasons"] == ["rtt"]
        assert summary["placements"] == {0: PLACEMENT_CLIENT}

    def test_slo_events_fan_out_to_all_controllers(self):
        manager = OffloadManager(OffloadConfig(policy="adaptive"))
        manager.controller(0)
        manager.controller(1)
        manager.on_slo_event(_slo_event("breach"))
        assert manager.controller(0).slo_breached
        assert manager.controller(1).slo_breached


def _session(policy: str, duration: float = 10.0, shaping=None,
             device_cpu=STRONG_CPU):
    dataset = euroc_dataset("MH04", duration=duration, rate=10.0)
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
    config.serving.offload.policy = policy
    return SlamShareSession(
        [ClientScenario(0, dataset, shaping=shaping, device_cpu=device_cpu)],
        config,
    )


def _heal(session, client_id):
    link = session.clients[client_id].link
    link.uplink.delay_s = 0.0
    link.downlink.delay_s = 0.0


@pytest.fixture(scope="module")
def bad_link_result():
    """One strong device, 10 s behind 300 ms of added delay, adaptive."""
    return _session("adaptive", shaping=PROFILE_DELAY_300MS).run()


@pytest.fixture(scope="module")
def fleet():
    """A fleet neither static policy suits, run under all three.

    Client 0 is a weak (default) device on a clean link: ~21 ms round
    trips against ~310 ms on-device, so the server is right for it.
    Client 1 is a strong device behind +300 ms that heals at 5 s: ~60 ms
    on-device against ~640 ms round trips while the link is bad.
    """
    results = {}
    for policy in ("static-server", "static-client", "adaptive"):
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        config.serving.offload.policy = policy
        session = SlamShareSession(
            [
                ClientScenario(
                    0, euroc_dataset("MH04", duration=10.0, rate=10.0)),
                ClientScenario(
                    1, euroc_dataset("MH05", duration=10.0, rate=10.0),
                    oracle_seed=9, imu_seed=13,
                    shaping=PROFILE_DELAY_300MS, device_cpu=STRONG_CPU),
            ],
            config,
        )
        session.clock.schedule_at(5.0, lambda s=session: _heal(s, 1))
        results[policy] = session.run()
    return results


def _pooled_rtt_p95(result) -> float:
    return float(np.percentile(
        [rtt for o in result.outcomes.values() for rtt in o.pose_rtts_ms],
        95))


class TestMixedFleet:
    def test_adaptive_beats_both_static_policies(self, fleet):
        """Pooled pose-RTT p95: each static policy is right for one
        client and terrible for the other; adaptive is right for both."""
        assert _pooled_rtt_p95(fleet["adaptive"]) <= min(
            _pooled_rtt_p95(fleet["static-server"]),
            _pooled_rtt_p95(fleet["static-client"]))

    def test_handoffs_both_ways_without_a_gap(self, fleet):
        result = fleet["adaptive"]
        committed = result.offload.committed_handoffs()
        assert {h.dst for h in committed} == {PLACEMENT_CLIENT,
                                             PLACEMENT_SERVER}
        assert all(h.imu_anchor_ts is not None for h in committed)
        for cid, outcome in result.outcomes.items():
            assert outcome.unaccounted_frames() == 0
            assert outcome.frames_shed == 0
            assert outcome.uplink_drops == outcome.pose_drops == 0
            assert result.client_ate(cid).rmse < 0.15


class TestSessionIntegration:
    def test_bad_link_migrates_tracking_to_client(self, bad_link_result):
        """300 ms of added delay (~640 ms round trips) drives a handoff;
        after it commits frames are tracked on-device and the migration
        carries the IMU anchor."""
        result = bad_link_result
        outcome = result.outcomes[0]
        committed = result.offload.committed_handoffs()
        assert len(committed) >= 1
        first = committed[0]
        assert first.src == PLACEMENT_SERVER
        assert first.dst == PLACEMENT_CLIENT
        assert first.reason == "rtt"
        assert first.imu_anchor_ts is not None
        assert outcome.frames_local > 0
        assert result.offload.placement(0) == PLACEMENT_CLIENT
        assert result.client_ate(0).rmse < 0.15

    def test_no_frame_dropped_across_handoff(self, bad_link_result):
        """The zero-gap ledger: every captured frame is processed,
        provably superseded, or offline — never silently lost."""
        outcome = bad_link_result.outcomes[0]
        assert outcome.frames_shed == 0
        assert outcome.uplink_drops == 0
        assert outcome.unaccounted_frames() == 0

    def test_link_recovery_returns_tracking_to_server(self):
        """Delay lifts mid-run: probes observe the clean link and the
        controller migrates tracking back (both directions exercised)."""
        session = _session("adaptive", duration=14.0,
                           shaping=PROFILE_DELAY_300MS)
        session.clock.schedule_at(5.0, lambda: _heal(session, 0))
        result = session.run()
        committed = result.offload.committed_handoffs()
        assert {h.dst for h in committed} == {PLACEMENT_CLIENT,
                                             PLACEMENT_SERVER}
        back = [h for h in committed if h.dst == PLACEMENT_SERVER][0]
        assert back.reason == "recovered"
        assert result.offload.placement(0) == PLACEMENT_SERVER
        assert result.client_ate(0).rmse < 0.15

    def test_static_policies_never_handoff(self, fleet):
        for policy in ("static-server", "static-client"):
            result = fleet[policy]
            assert result.offload.handoffs == []
            for outcome in result.outcomes.values():
                if policy == "static-client":
                    assert outcome.frames_local == outcome.frames_captured > 0
                else:
                    assert outcome.frames_local == 0

    def test_manual_handoff_any_policy(self):
        session = _session("static-server")
        session.clock.schedule_at(
            3.0, lambda: session.request_handoff(0, PLACEMENT_CLIENT))
        result = session.run()
        committed = result.offload.committed_handoffs()
        assert len(committed) == 1
        assert committed[0].reason == "manual"
        assert committed[0].imu_anchor_ts is not None
        assert result.outcomes[0].handoffs == 1
        assert result.outcomes[0].frames_local > 0

    def test_manual_handoff_noop_when_already_there(self):
        session = _session("static-server", duration=4.0)
        results = []
        session.clock.schedule_at(
            2.0,
            lambda: results.append(
                session.request_handoff(0, PLACEMENT_SERVER)))
        session.run()
        assert results == [None]

    def test_manual_handoff_validates_input(self):
        session = _session("static-server")
        with pytest.raises(ValueError):
            session.request_handoff(0, "edge")
        with pytest.raises(ValueError):
            session.request_handoff(99, PLACEMENT_CLIENT)


class TestWouldPlaceTrace:
    def test_overload_emits_would_place_even_under_static_policy(self):
        """The admission overload path reports the would-be adaptive
        placement to the tracer even with the controller disabled, so
        static runs still show what adaptive would have done."""
        tracer = get_tracer()
        tracer.reset()
        tracer.configure(enabled=True)
        try:
            session = _session("static-server", duration=4.0)
            depth = session.config.serving.queue_depth

            def hog():
                for _ in range(depth):
                    session.server.try_admit(0)

            session.clock.schedule_at(1.0, hog)
            session.clock.schedule_at(
                2.0,
                lambda: [session.server.release_frame(0)
                         for _ in range(depth)])
            result = session.run()
            assert result.outcomes[0].frames_shed > 0   # static: discarded
            spans = [s for s in tracer.spans
                     if s.name == "offload.would_place"]
            assert spans, "overload must emit the would-be placement"
            assert spans[0].attrs["placement"] == PLACEMENT_CLIENT
            assert spans[0].attrs["adaptive"] is False
        finally:
            tracer.configure(enabled=False)
            tracer.reset()

    def test_overload_degrades_to_device_under_adaptive(self):
        """Same spike under the adaptive policy: frames degrade to
        on-device tracking instead of being discarded."""
        session = _session("adaptive", duration=6.0)
        depth = session.config.serving.queue_depth

        def hog():
            for _ in range(depth):
                session.server.try_admit(0)

        session.clock.schedule_at(1.0, hog)
        session.clock.schedule_at(
            2.0,
            lambda: [session.server.release_frame(0) for _ in range(depth)])
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.frames_shed == 0
        assert outcome.frames_degraded > 0
        assert outcome.unaccounted_frames() == 0
        committed = result.offload.committed_handoffs()
        assert any(h.reason in ("shed", "load") for h in committed)
