"""Failure-injection tests: the system under hostile conditions.

A multi-user AR system lives on unreliable wireless links with clients
that come and go.  These tests inject packet loss, extreme delay,
observation outages and merge failures, and assert the system degrades
the way the architecture promises (IMU bridges gaps, merges retry,
nothing corrupts).
"""

import pytest

from repro.core import (
    ClientScenario,
    FrameAccountingError,
    SlamShareConfig,
    SlamShareSession,
)
from repro.datasets import euroc_dataset
from repro.net import ShapingProfile
from repro.vision import FeatureSet
from tests.test_shm_multiproc import shm_required


def _session(shaping=None, durations=(12.0, 9.0), ate_interval=None,
             **serving):
    mh04 = euroc_dataset("MH04", duration=durations[0], rate=10.0)
    mh05 = euroc_dataset("MH05", duration=durations[1], rate=10.0)
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
    if shaping is not None:
        config.shaping = shaping
    for key, value in serving.items():
        setattr(config.serving, key, value)
    return SlamShareSession(
        [
            ClientScenario(0, mh04),
            ClientScenario(1, mh05, start_time=3.0, oracle_seed=9,
                           imu_seed=13),
        ],
        config,
        ate_sample_interval=ate_interval,
    )


class TestLossyLinks:
    def test_session_survives_packet_loss(self):
        """10% loss drops some frames and poses; IMU bridges the gaps
        and accuracy stays in the paper's regime."""
        lossy = ShapingProfile("lossy wifi", loss_rate=0.10)
        result = _session(shaping=lossy).run()
        for cid in result.outcomes:
            ate = result.client_ate(cid)
            assert ate.rmse < 0.15
        # Loss is actually happening.
        session_links = [
            outcome for outcome in result.outcomes.values()
        ]
        total_frames = sum(o.frames_processed for o in session_links)
        expected = sum(
            len(range(0, o.scenario.dataset.n_frames, 1))
            for o in session_links
        )
        assert total_frames < expected  # some uplink frames were dropped

    def test_heavy_loss_still_no_corruption(self):
        lossy = ShapingProfile("terrible link", loss_rate=0.35)
        result = _session(shaping=lossy).run()
        # The run completes, the loss is counted and bridged, accuracy
        # holds and the global map is structurally sound.
        assert result.outcomes[0].uplink_drops > 0
        assert result.outcomes[0].frames_recovered > 0
        for cid in result.outcomes:
            assert result.client_ate(cid).rmse < 0.15
        gmap = result.server.global_map
        for kf in gmap.keyframes.values():
            for pid in kf.observed_point_ids():
                assert int(pid) in gmap.mappoints or int(pid) < 0


class TestExtremeDelay:
    def test_one_second_rtt(self):
        """Paper Table 2's worst case: a full second of RTT."""
        slow = ShapingProfile("1s delay", delay_s=0.5)  # 1 s RTT
        result = _session(shaping=slow).run()
        for cid in result.outcomes:
            # Server-side map still accurate; display degrades gracefully.
            assert result.client_ate(cid).rmse < 0.10
            display = result.client_ate(cid, use_display=True).rmse
            assert display < 0.5


class TestObservationOutage:
    def test_client_blackout_recovers_via_relocalization(self):
        """A client's camera is covered mid-session; when it uncovers at
        a mapped location, the server process relocalizes it."""
        session = _session()
        # Inject: drop observations for client 0 in a time window by
        # wrapping the oracle.
        original_process = session._process_frame
        blackout = (5.0, 7.0)

        def patched(state, frame_idx, dataset_ts):
            scenario = state.scenario
            if (
                scenario.client_id == 0
                and blackout[0] <= dataset_ts <= blackout[1]
            ):
                real_observe = state.oracle.observe
                state.oracle.observe = lambda *a, **k: FeatureSet()
                try:
                    original_process(state, frame_idx, dataset_ts)
                finally:
                    state.oracle.observe = real_observe
            else:
                original_process(state, frame_idx, dataset_ts)

        session._process_frame = patched
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.frames_lost > 0  # blackout hurt
        assert 0 in result.server.processes   # the client kept its process
        # Tracking resumed (relocalization or IMU-bridged reacquisition).
        traj = result.server.client_trajectory(0)
        assert traj.timestamps[-1] > blackout[1]
        assert result.client_ate(0).rmse < 0.15


class TestClientChurn:
    def test_disconnect_rejoin_relocalizes_and_stays_accurate(self):
        """A client drops off mid-session and rejoins 2.5 s later: the
        server parks and resumes its process, the first post-rejoin
        upload bridges the window with accumulated IMU, and accuracy
        stays in the paper's regime (acceptance: ATE RMSE < 0.15)."""
        session = _session()
        session.clock.schedule_at(5.0, lambda: session.disconnect_client(0))
        session.clock.schedule_at(7.5, lambda: session.rejoin_client(0))
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.disconnects == 1
        assert outcome.rejoins == 1
        assert outcome.frames_offline > 0
        # The rejoin delivery bridged the offline window's IMU interval.
        assert outcome.frames_recovered >= 1
        # Tracking resumed past the outage (IMU prior or relocalization).
        traj = result.server.client_trajectory(0)
        assert traj.timestamps[-1] > 7.5
        for cid in result.outcomes:
            assert result.client_ate(cid).rmse < 0.15

    def test_offline_window_scenario_field(self):
        """Declarative churn via ClientScenario.offline_windows."""
        mh04 = euroc_dataset("MH04", duration=12.0, rate=10.0)
        mh05 = euroc_dataset("MH05", duration=9.0, rate=10.0)
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        session = SlamShareSession(
            [
                ClientScenario(0, mh04, offline_windows=((5.0, 7.0),)),
                ClientScenario(1, mh05, start_time=3.0, oracle_seed=9,
                               imu_seed=13),
            ],
            config,
        )
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.disconnects == 1 and outcome.rejoins == 1
        assert result.client_ate(0).rmse < 0.15

    def test_churn_under_heavy_loss_no_corruption(self):
        """Disconnect/rejoin on a 35% lossy link: the session completes,
        drops are accounted per client, lost IMU intervals accumulate
        into later uploads, and the shared map stays structurally sound."""
        lossy = ShapingProfile("terrible link", loss_rate=0.35)
        session = _session(shaping=lossy)
        session.clock.schedule_at(5.0, lambda: session.disconnect_client(0))
        session.clock.schedule_at(7.5, lambda: session.rejoin_client(0))
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.uplink_drops > 0
        assert outcome.frames_recovered > 0
        assert outcome.disconnects == 1 and outcome.rejoins == 1
        for cid in result.outcomes:
            assert result.client_ate(cid).rmse < 0.15
        gmap = result.server.global_map
        for kf in gmap.keyframes.values():
            for pid in kf.observed_point_ids():
                assert int(pid) in gmap.mappoints or int(pid) < 0

    def test_double_disconnect_and_rejoin_are_idempotent(self):
        session = _session()
        session.clock.schedule_at(5.0, lambda: session.disconnect_client(0))
        session.clock.schedule_at(5.1, lambda: session.disconnect_client(0))
        session.clock.schedule_at(7.0, lambda: session.rejoin_client(0))
        session.clock.schedule_at(7.1, lambda: session.rejoin_client(0))
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.disconnects == 1 and outcome.rejoins == 1

    def test_unknown_client_rejected(self):
        session = _session()
        with pytest.raises(ValueError):
            session.disconnect_client(99)

    def test_frames_landing_after_disconnect_are_counted(self):
        """A frame uploaded in the instant before the radio drops lands
        on a parked process: it is a reported outcome (frames_parked),
        not a frame that vanishes from the accounting."""
        mh04 = euroc_dataset("MH04", duration=12.0, rate=10.0)
        mh05 = euroc_dataset("MH05", duration=9.0, rate=10.0)
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        config.shaping = ShapingProfile("lossy wifi", loss_rate=0.10)
        session = SlamShareSession(
            [
                ClientScenario(0, mh04,
                               offline_windows=((4.0, 6.0), (8.0, 8.6))),
                ClientScenario(1, mh05, start_time=3.0, oracle_seed=9,
                               imu_seed=13),
            ],
            config,
        )
        result = session.run()
        churned, steady = result.outcomes[0], result.outcomes[1]
        assert churned.frames_parked == 2
        assert steady.frames_parked == 0
        assert churned.uplink_drops > 0 and churned.frames_offline > 0
        for outcome in result.outcomes.values():
            assert outcome.unaccounted_frames() == 0


class TestRunEndInvariant:
    def test_run_fails_when_a_frame_lands_in_no_counter(self):
        """The frame-accounting identity is checked by run() itself: a
        terminal path that forgets its counter fails the run, naming
        the client and its counters."""
        lossy = ShapingProfile("lossy wifi", loss_rate=0.10)
        session = _session(shaping=lossy, durations=(4.0, 3.0))
        session._on_uplink_dropped = lambda state, message: None
        with pytest.raises(FrameAccountingError, match=r"client 0: \d+ of 40"):
            session.run()

    def test_run_fails_when_a_shard_lock_is_left_held(self):
        """A reader that never releases would block the next writer of
        that shard forever, so it is leaked after the last publish;
        run() names the shard instead of returning."""
        session = _session(durations=(2.0, 1.0))
        leaked = session.server.store.shards[0].lock
        session.clock.schedule_at(10.0, leaked.acquire_read)
        with pytest.raises(FrameAccountingError,
                           match=r"shard 0: lock still held \(readers=1"):
            session.run()

    @shm_required
    def test_run_fails_when_the_pack_lock_is_left_held(self):
        """The shm backend's packed-map lock is a store lock too: a
        leaked reader fails the run, naming the pack."""
        with _session(durations=(2.0, 1.0), store_backend="shm") as session:
            leaked = session.server.store.pack.lock
            session.clock.schedule_at(10.0, leaked.acquire_read)
            with pytest.raises(FrameAccountingError,
                               match=r"pack: lock still held \(readers=1"):
                session.run()


class TestUplinkDropAccounting:
    def test_per_client_drop_counts_match_link_stats(self):
        """Satellite: session traffic rides the Endpoint layer, so the
        per-client uplink drop counts in ClientOutcome must agree with
        the link-level loss accounting."""
        lossy = ShapingProfile("lossy wifi", loss_rate=0.10)
        session = _session(shaping=lossy)
        result = session.run()
        for cid, outcome in result.outcomes.items():
            link = session.clients[cid].link
            device_ep = session.clients[cid].device_ep
            assert outcome.uplink_drops == link.uplink.stats.messages_dropped
            assert outcome.uplink_drops == len(device_ep.dropped)
            assert outcome.uplink_drops > 0
            # Frames either processed or dropped; none silently vanish.
            uploaded = len(device_ep.sent)
            assert outcome.frames_processed + outcome.uplink_drops == uploaded


class TestMergeRobustness:
    def test_failed_merge_rolls_back_and_retries(self):
        """A client starts in un-mappable isolation (no overlap yet), so
        early merge attempts fail; the rollback must leave both maps
        clean and a later attempt must succeed."""
        from repro.slam import MergerConfig

        mh04 = euroc_dataset("MH04", duration=12.0, rate=10.0)
        mh05 = euroc_dataset("MH05", duration=9.0, rate=10.0)
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        # Impossibly strict first: all attempts fail.
        config.merger = MergerConfig(min_correspondences=100000)
        session = SlamShareSession(
            [
                ClientScenario(0, mh04),
                ClientScenario(1, mh05, start_time=3.0, oracle_seed=9,
                               imu_seed=13),
            ],
            config,
        )
        result = session.run()
        assert not result.merges  # nothing merged under the strict config
        server = result.server
        # Rollback cleanliness: no client-1 debris in the global map.
        assert not server.global_map.keyframes_of_client(1)
        assert not [
            p for p in server.global_map.mappoints.values() if p.client_id == 1
        ]
        # The client's own map must still be intact and mergeable.
        process = server.processes[1]
        assert process.system.map.n_keyframes > 0
        from repro.slam import MapMerger

        merger = MapMerger(
            server.global_map, server.global_database, mh04.camera,
            MergerConfig(),  # sane thresholds now
        )
        retry = merger.merge_maps(process.system.map, client_id=1)
        assert retry.success

    def test_disjoint_client_never_merges_but_tracks(self):
        """A client in a different room keeps its own map and keeps
        tracking; the session must not force a bogus merge."""
        mh04 = euroc_dataset("MH04", duration=10.0, rate=10.0)
        v202 = euroc_dataset("V202", duration=8.0, rate=10.0)
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        session = SlamShareSession(
            [
                ClientScenario(0, mh04),
                ClientScenario(1, v202, start_time=2.0, oracle_seed=9,
                               imu_seed=13),
            ],
            config,
        )
        result = session.run()
        assert not result.merges
        # Both clients track fine in their own frames.
        for cid in (0, 1):
            assert result.client_ate(cid).rmse < 0.10

    def test_failed_merge_leaves_global_state_untouched(self, monkeypatch):
        """A failed attempt searches before it ingests: the global map, its
        version (the cache key of every merged client's local-map pack) and
        its BoW index are exactly as before, and what the attempt learned
        stays with the client's process so the next one is cheap."""
        from repro.slam import MapMerger

        mh04 = euroc_dataset("MH04", duration=5.0, rate=10.0)
        v202 = euroc_dataset("V202", duration=4.0, rate=10.0)
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        session = SlamShareSession(
            [
                ClientScenario(0, mh04),
                ClientScenario(1, v202, start_time=1.0, oracle_seed=9,
                               imu_seed=13),
            ],
            config,
        )
        result = session.run()
        server = result.server
        process = server.processes[1]
        assert not process.merged and process.rejected_pairs

        def state():
            gmap = server.global_map
            return (gmap.version, gmap.n_keyframes, gmap.n_mappoints,
                    len(server.global_database))

        matched = []
        correspondences = MapMerger._correspondences

        def counting(merger, *pair):
            matched.append(pair)
            return correspondences(merger, *pair)

        monkeypatch.setattr(MapMerger, "_correspondences", counting)
        before = state()
        # Client 0 kept mapping after client 1's last keyframe, so this
        # attempt may meet a few new pairs; an immediate second one cannot.
        assert server._try_merge(process) == (None, 0.0)
        assert state() == before
        matched.clear()
        assert server._try_merge(process) == (None, 0.0)
        assert matched == []
        # Forgetting them costs the whole search again, and still no write.
        process.rejected_pairs.clear()
        assert server._try_merge(process) == (None, 0.0)
        assert len(matched) == len(process.rejected_pairs) > 0
        assert state() == before
        assert process.system.map.n_keyframes > 0


class TestOffloadUnderChurn:
    """Adaptive offloading on hostile links: the handoff machinery must
    degrade exactly like the rest of the transport — bounded by the
    cooldown, aborting cleanly on dead links, and never losing the IMU
    anchor across migrations."""

    def _adaptive_session(self, duration=12.0, shaping=None,
                          policy="adaptive"):
        from repro.core import ClientScenario as CS
        from repro.gpu.device import CpuCostModel

        dataset = euroc_dataset("MH04", duration=duration, rate=10.0)
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        config.serving.offload.policy = policy
        strong = CpuCostModel(pixel_ns=70.0, pair_ns=40.0,
                              feature_match_ns=1500.0)
        return SlamShareSession(
            [CS(0, dataset, shaping=shaping, device_cpu=strong)], config)

    def test_flapping_link_commits_bounded_by_cooldown(self):
        """The link flips clean<->terrible every second, far faster than
        the 2 s cooldown: committed migrations stay bounded by
        duration/cooldown and the frame ledger stays gap-free."""
        session = self._adaptive_session(duration=12.0)
        cooldown = session.config.serving.offload.cooldown_s

        def set_delay(delay_s):
            link = session.clients[0].link
            link.uplink.delay_s = delay_s
            link.downlink.delay_s = delay_s

        for i in range(12):
            session.clock.schedule_at(
                float(i), lambda d=(0.3 if i % 2 == 0 else 0.0): set_delay(d))
        result = session.run()
        committed = result.offload.committed_handoffs()
        assert len(committed) <= 12.0 / cooldown + 1
        for first, second in zip(committed, committed[1:]):
            assert (second.committed_at - first.committed_at
                    >= cooldown - 1e-9)
        outcome = result.outcomes[0]
        assert outcome.frames_shed == 0 and outcome.uplink_drops == 0
        assert outcome.unaccounted_frames() == 0

    def test_disconnect_mid_handoff_aborts_cleanly(self):
        """The client vanishes while the handoff message is in flight on
        a 300 ms link: the reliable-ARQ drop callback aborts the
        migration, placement stays put, and the session completes."""
        from repro.net.tc import PROFILE_DELAY_300MS

        # Static policy: placement is still on the server at t=3.0, so
        # the manual migration below is the only handoff in play.
        session = self._adaptive_session(duration=12.0,
                                         shaping=PROFILE_DELAY_300MS,
                                         policy="static-server")
        initiated = []
        session.clock.schedule_at(
            3.0,
            lambda: initiated.append(session.request_handoff(0, "client")))
        # 300 ms one-way: the handoff is still airborne 50 ms later.
        session.clock.schedule_at(3.05,
                                  lambda: session.disconnect_client(0))
        session.clock.schedule_at(6.0, lambda: session.rejoin_client(0))
        result = session.run()
        assert initiated and initiated[0] is not None
        aborted = [h for h in result.offload.handoffs if h.aborted]
        assert len(aborted) >= 1
        assert aborted[0].dst == "client"
        assert not aborted[0].committed
        outcome = result.outcomes[0]
        assert outcome.disconnects == 1 and outcome.rejoins == 1

    def test_handoff_preserves_imu_anchor_across_churn(self):
        """Disconnect/rejoin, then migrate: the handoff payload carries
        the IMU anchor so the device-side tracker resumes from the exact
        timestamp the server-side tracker had integrated to — tracking
        stays continuous and accurate."""
        session = self._adaptive_session(duration=14.0,
                                         policy="static-server")
        session.clock.schedule_at(4.0, lambda: session.disconnect_client(0))
        session.clock.schedule_at(6.0, lambda: session.rejoin_client(0))
        anchors = []

        def migrate():
            anchors.append(session.clients[0].imu_anchor_ts)
            session.request_handoff(0, "client")

        session.clock.schedule_at(8.0, migrate)
        result = session.run()
        committed = result.offload.committed_handoffs()
        assert len(committed) == 1
        record = committed[0]
        assert record.imu_anchor_ts is not None
        # The anchor in the payload is the one tracking had reached.
        assert record.imu_anchor_ts == anchors[0]
        # Post-rejoin anchor: the offline window was already bridged.
        assert record.imu_anchor_ts > 4.0
        assert result.outcomes[0].frames_local > 0
        assert result.client_ate(0).rmse < 0.15
