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
from repro.net.tc import PROFILE_DELAY_300MS
from repro.obs import get_tracer
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
            assert outcome.uplink_drops == device_ep.n_dropped
            assert outcome.uplink_drops > 0
            # Frames either processed or dropped; none silently vanish.
            uploaded = device_ep.n_sent
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

    def test_disjoint_client_never_merges_but_tracks(self, monkeypatch):
        """A client in a different room keeps its own map and keeps
        tracking; the session must not force a bogus merge.  The room
        looks nothing like the hall, so no candidate pair carries the
        descriptor matches to reach Sim3 RANSAC."""
        from repro.slam import merging

        hypotheses = []
        ransac = merging.ransac_umeyama

        def counting(*args, **kwargs):
            hypotheses.append(args)
            return ransac(*args, **kwargs)

        monkeypatch.setattr(merging, "ransac_umeyama", counting)
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
        assert hypotheses == []
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


@pytest.fixture
def tracer():
    """A fresh, enabled tracer (restores global state afterwards)."""
    t = get_tracer()
    was_enabled, old_clock = t.enabled, t.clock
    t.reset()
    t.configure(enabled=True)
    yield t
    t.reset()
    t.enabled = was_enabled
    t.clock = old_clock


def _closed_with(tracer, status):
    return [s for s in tracer.spans
            if s.name == "frame.lifecycle" and s.attrs.get("status") == status]


class TestReorderedUplink:
    """A link whose delay drops mid-run delivers later frames before
    earlier ones: the tracker must only ever move forward in time."""

    def test_delay_drop_supersedes_overtaken_frames(self, tracer):
        dataset = euroc_dataset("MH04", duration=8.0, rate=10.0)
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False,
                                 shaping=PROFILE_DELAY_300MS)
        session = SlamShareSession([ClientScenario(0, dataset)], config)

        def heal():
            link = session.clients[0].link
            link.uplink.delay_s = link.downlink.delay_s = 0.0

        session.clock.schedule_at(4.0, heal)
        process_frame = session.server.process_frame
        tracked = {}

        def recording(client_id, timestamp, *args, **kwargs):
            tracked.setdefault(client_id, []).append(timestamp)
            return process_frame(client_id, timestamp, *args, **kwargs)

        session.server.process_frame = recording
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.frames_superseded >= 1
        assert outcome.unaccounted_frames() == 0
        assert len(_closed_with(tracer, "superseded")) == \
            outcome.frames_superseded
        for timestamps in tracked.values():
            assert all(a < b for a, b in zip(timestamps, timestamps[1:]))
        assert len(tracked[0]) == outcome.frames_processed
        assert result.client_ate(0).rmse < 0.15


class TestOverloadShed:
    def test_full_admission_queue_sheds_and_recovers(self, tracer):
        """Every admission slot is taken from t = 1 s to t = 2 s: frames
        delivered meanwhile are shed as ``overload``, each one closing
        its trace, and tracking resumes once the slots come back."""
        dataset = euroc_dataset("MH04", duration=4.0, rate=10.0)
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        session = SlamShareSession([ClientScenario(0, dataset)], config)
        depth = config.serving.queue_depth

        def hog():
            for _ in range(depth):
                session.server.try_admit(0)

        def release():
            for _ in range(depth):
                session.server.release_frame(0)

        session.clock.schedule_at(1.0, hog)
        session.clock.schedule_at(2.0, release)
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.frames_shed > 0
        assert outcome.unaccounted_frames() == 0
        assert len(_closed_with(tracer, "overload")) == outcome.frames_shed
        assert outcome.frames_processed > 0
        assert tracer.open_trace_count() == 0
