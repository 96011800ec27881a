"""End-to-end tests for the SLAM-Share session, server, client, holograms.

These are the system-level tests of the paper's architecture: multi-user
sessions over the simulated network, merging, pose fusion, hologram
consistency.  Durations are kept short (pure-Python SLAM); module-level
session results are shared across read-only tests.
"""

import functools
import gc
import weakref

import numpy as np
import pytest

from repro.core import (
    BaselineConfig,
    BaselineSession,
    ClientScenario,
    SlamShareConfig,
    SlamShareSession,
    perceived_position,
    placement_error,
)
from repro.datasets import euroc_dataset
from repro.geometry import Sim3
from repro.gpu import GpuCostModel
from repro.net import (
    FRAME_HEADER_BYTES,
    PROFILE_BW_9_4,
    PROFILE_DELAY_300MS,
    PROFILE_IDEAL,
    ShapingProfile,
)
from repro.vision import FeatureOracle
from tests.test_shm_multiproc import shm_required


def _scenarios(duration_a=14.0, duration_b=11.0, rate=10.0):
    mh04 = euroc_dataset("MH04", duration=duration_a, rate=rate)
    mh05 = euroc_dataset("MH05", duration=duration_b, rate=rate)
    return [
        ClientScenario(0, mh04),
        ClientScenario(1, mh05, start_time=4.0, oracle_seed=9, imu_seed=13),
    ]


def _run(shaping=None, **cfg_kwargs):
    config = SlamShareConfig(
        camera_fps=10.0, render_video_frames=False, **cfg_kwargs
    )
    if shaping is not None:
        config.shaping = shaping
    session = SlamShareSession(_scenarios(), config, ate_sample_interval=0.5)
    return session.run()


# One shared run for the read-only assertions.
RESULT = _run()


class TestSlamShareSession:
    def test_all_clients_track(self):
        for outcome in RESULT.outcomes.values():
            assert outcome.frames_processed > 0
            assert outcome.frames_lost <= 2

    def test_server_ate_under_paper_bound(self):
        for cid in RESULT.outcomes:
            assert RESULT.client_ate(cid).rmse < 0.10  # paper: < 10 cm

    def test_client_display_ate_close_to_server(self):
        for cid in RESULT.outcomes:
            display = RESULT.client_ate(cid, use_display=True).rmse
            server = RESULT.client_ate(cid).rmse
            assert display < server + 0.05

    def test_second_client_merges(self):
        assert len(RESULT.merges) == 1
        merge = RESULT.merges[0]
        assert merge.client_id == 1
        assert merge.transform.scale == pytest.approx(1.0, abs=0.05)

    def test_merge_latency_under_200ms(self):
        # The headline claim: merge/update within 200 ms.
        assert RESULT.merges[0].merge_ms < 200.0

    def test_tracking_latency_realtime(self):
        for outcome in RESULT.outcomes.values():
            mean_ms = np.mean(outcome.tracking_latencies_ms)
            assert mean_ms < 33.0

    def test_global_ate_spikes_then_drops_at_merge(self):
        """The Fig. 10a shape: the live pooled ATE is large while client
        B's fragment floats in its own frame, then collapses at merge."""
        merge_t = RESULT.merges[0].session_time
        before = [v for t, v in RESULT.live_global_ate
                  if 4.5 < t < merge_t]
        after = [v for t, v in RESULT.live_global_ate if t > merge_t + 0.5]
        assert before and after
        assert max(before) > 0.10   # spike while unmerged (paper: 55 cm)
        assert max(after) < 0.10    # collapses post-merge (paper: ~1 cm)

    def test_shared_store_populated(self):
        stats = RESULT.server.store.stats()
        assert stats.n_keyframes == RESULT.server.global_map.n_keyframes
        assert stats.writes > 0

    def test_pose_rtt_small_on_ideal_link(self):
        for outcome in RESULT.outcomes.values():
            assert np.mean(outcome.pose_rtts_ms) < 40.0

    def test_client_cpu_far_below_full_slam(self):
        # Fig. 13: the SLAM-Share client is ~0.7% of ONE core.
        for outcome in RESULT.outcomes.values():
            cores = outcome.client.cpu.mean_cores()
            assert cores < 0.2

    def test_gpu_spatial_share(self):
        assert RESULT.server.gpu_share() == pytest.approx(0.5)

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValueError):
            SlamShareSession([])


class TestNetworkConditions:
    def test_delay_300ms_keeps_accuracy(self):
        """Fig. 12a/Table 2: SLAM-Share rides out 300 ms of added delay."""
        result = _run(shaping=PROFILE_DELAY_300MS)
        for cid in result.outcomes:
            assert result.client_ate(cid).rmse < 0.12
        # Pose RTTs actually reflect the delay.
        rtts = result.outcomes[0].pose_rtts_ms
        assert np.mean(rtts) > 600.0


class TestHolograms:
    def test_shared_frame_consistency(self):
        """Fig. 11b: with SLAM-Share all clients perceive the hologram at
        (nearly) the same real-world position."""
        frame_b = RESULT.client_frame(0)
        frame_c = RESULT.client_frame(1)
        hologram = RESULT.holograms.place(
            np.array([2.0, 1.0, 1.5]), client_id=0, timestamp=10.0
        )
        err = placement_error(hologram, frame_b, frame_c)
        assert err < 0.10

    def test_no_sharing_scatters_holograms(self):
        """Fig. 11a: private frames put the same coordinates meters apart."""
        # Client frames without merging: each client's own first-camera
        # frame related to the world by a different transform.
        mh04 = euroc_dataset("MH04", duration=6.0, rate=10.0)
        mh05 = euroc_dataset("MH05", duration=6.0, rate=10.0)
        frame_b = Sim3.from_se3(mh04.pose_cw(0).inverse())
        frame_c = Sim3.from_se3(mh05.pose_cw(0).inverse())
        from repro.core.holograms import Hologram

        hologram = Hologram(0, np.array([2.0, 1.0, 1.5]), 0, 0.0)
        err = placement_error(hologram, frame_b, frame_c)
        assert err > 1.0  # meters, as in the paper's 6.94 m example

    def test_registry(self):
        from repro.core.holograms import HologramRegistry

        registry = HologramRegistry()
        h = registry.place(np.array([1.0, 2.0, 3.0]), client_id=1, timestamp=5.0)
        assert registry.get(h.hologram_id) is h
        assert registry.get(99) is None
        assert len(registry) == 1

    def test_perceived_position_identity(self):
        from repro.core.holograms import Hologram

        h = Hologram(0, np.array([1.0, 2.0, 3.0]), 0, 0.0)
        assert np.allclose(perceived_position(h, Sim3.identity()), [1, 2, 3])


def _short_session(oracle_seed=7, video=False, shaping=PROFILE_IDEAL,
                   **serving):
    """Two clients, 5 s each, overlapping MH04 passes (they merge)."""
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=video,
                             shaping=shaping)
    for key, value in serving.items():
        setattr(config.serving, key, value)
    mh04 = euroc_dataset("MH04", duration=5.0, rate=10.0)
    return SlamShareSession(
        [
            ClientScenario(0, mh04, oracle_seed=oracle_seed),
            ClientScenario(1, mh04, start_time=1.0, oracle_seed=21,
                           imu_seed=23),
        ],
        config,
    )


@functools.lru_cache(maxsize=None)
def _short_default():
    """The default short session, run once for the read-only tests."""
    session = _short_session()
    return session, session.run()


class TestSessionDigest:
    def test_same_config_same_digest_other_seed_other_digest(self):
        first = _short_default()[1].digest()
        assert _short_session().run().digest() == first
        assert _short_session(oracle_seed=8).run().digest() != first

    def test_ground_truth_ids_are_inert(self, monkeypatch):
        # Every batch carries the oracle's landmark ids; no stage may read
        # them, so scrambling them on every frame leaves the run unchanged.
        want = _short_default()[1].digest()
        observe = FeatureOracle.observe
        shuffle = np.random.default_rng(99).permutation
        scrambled = []

        def permuted(self, *args):
            features = observe(self, *args)
            features.landmark_ids = shuffle(features.landmark_ids)
            scrambled.append(len(features))
            return features

        monkeypatch.setattr(FeatureOracle, "observe", permuted)
        assert _short_session().run().digest() == want
        assert len(scrambled) == 100 and sum(scrambled) > 1000

    def test_video_bytes_reach_the_clock_on_a_shaped_link(self):
        # On the unconstrained link upload time does not depend on size,
        # so the digest is blind to what the codec emits; at 9.4 Mbit/s
        # every encoded byte delays its frame.
        def digest(video):
            return _short_session(video=video, shaping=PROFILE_BW_9_4).run().digest()

        with_video = digest(True)
        assert with_video != digest(False)
        assert digest(True) == with_video

    def test_codec_bytes_reach_the_clock_only_on_a_shaped_link(self):
        # On the unconstrained link the run is blind to the video stream,
        # so rendering and encoding every frame leaves the digest alone.
        video = _short_session(video=True).run().digest()
        assert video == _short_default()[1].digest()

    @shm_required
    def test_store_backends_agree(self):
        local = _short_default()[1]
        with _short_session(store_backend="shm") as session:
            assert session.run().digest() == local.digest()
        assert local.server.store.stats().n_keyframes > 0


class TestFramePayloadRelease:
    def test_handled_frames_release_their_features(self, monkeypatch):
        # The endpoints keep no message; once the server has handled a
        # frame, only a keyframe of the map may still hold its features.
        observe = FeatureOracle.observe
        refs = []

        def recording(self, *args):
            features = observe(self, *args)
            refs.append(weakref.ref(features))
            return features

        monkeypatch.setattr(FeatureOracle, "observe", recording)
        session = _short_session()
        session.run()
        gc.collect()
        received = sum(state.server_ep.n_received
                       for state in session.clients.values())
        assert received == len(refs) == 100
        alive = sum(ref() is not None for ref in refs)
        assert alive <= session.server.store.stats().n_keyframes
        assert refs[-1]() is None

    def test_dropped_frames_release_their_features(self):
        # A frame the uplink loses never reaches _on_frame; nothing holds
        # the lost message, so its features go with it.
        session = _short_session(
            shaping=ShapingProfile("10% loss", loss_rate=0.10))
        on_dropped = session._on_uplink_dropped
        refs = []

        def recording(state, message):
            refs.append(weakref.ref(message.payload.observations))
            on_dropped(state, message)

        session._on_uplink_dropped = recording
        result = session.run()
        gc.collect()
        assert len(refs) == sum(o.uplink_drops
                                for o in result.outcomes.values()) > 0
        assert all(ref() is None for ref in refs)


class TestGpuSharingAppliedOnce:
    def test_kernels_take_the_modeled_latency_past_saturation(self):
        # Six clients oversubscribe the GPU: the latency model already
        # slows each stream by its 1/6 share, so the scheduler must book
        # the kernel at exactly that modeled time, not slow it again.
        n = GpuCostModel().saturation_clients + 2
        mh04 = euroc_dataset("MH04", duration=1.0, rate=10.0)
        session = SlamShareSession(
            [ClientScenario(cid, mh04, oracle_seed=7 + cid,
                            imu_seed=11 + cid) for cid in range(n)],
            SlamShareConfig(camera_fps=10.0, render_video_frames=False),
        )
        process_frame = session.server.process_frame
        modeled = {cid: [] for cid in range(n)}

        def recording(client_id, *args, **kwargs):
            result = process_frame(client_id, *args, **kwargs)
            if result.pose_cw is not None:       # only these reach the GPU
                modeled[client_id].append(result.latency.total / 1e3)
            return result

        session.server.process_frame = recording
        session.run()
        assert session.server.latency_model.gpu.sharing_slowdown(
            session.server.gpu_share()) == pytest.approx(n / 4)
        for cid in range(n):
            booked = [r.finished_at - r.started_at
                      for r in session.scheduler.records if r.client_id == cid]
            assert len(booked) == len(modeled[cid]) >= 5
            assert booked == pytest.approx(modeled[cid], rel=1e-12)


class TestCallersConfig:
    """A system reads its config and never writes to it."""

    def test_slam_system_leaves_callers_config_alone(self):
        from dataclasses import asdict

        from repro.slam import SlamConfig, SlamSystem
        from repro.vision import PinholeCamera

        config = SlamConfig(keyframe_interval=5, mono_scale=0.5)
        before = asdict(config)
        SlamSystem(PinholeCamera.ideal(320, 240), config)
        assert asdict(config) == before


class TestSessionSeams:
    """What benchmarks/perf relies on from outside the package."""

    def test_process_frame_replaced_on_instance_sees_every_frame(self):
        session = _short_session()
        process_frame = session.server.process_frame
        seen = []

        def recording(client_id, *args, **kwargs):
            seen.append(client_id)
            return process_frame(client_id, *args, **kwargs)

        session.server.process_frame = recording
        result = session.run()
        for cid, outcome in result.outcomes.items():
            assert outcome.frames_processed == 50
            assert seen.count(cid) == 50
        assert len(seen) == 100

    def test_handler_table_is_what_the_endpoints_register(self):
        table = SlamShareSession.MESSAGE_HANDLERS
        assert sorted(table) == [("device", "pose"), ("server", "frame")]
        session, _ = _short_default()
        for state in session.clients.values():
            assert sorted(state.device_ep._handlers) == ["pose"]
            assert sorted(state.server_ep._handlers) == ["frame"]


class TestBaselineSession:
    def test_baseline_runs_and_merges(self):
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        baseline = BaselineConfig(hold_down_frames=40)
        session = BaselineSession(_scenarios(), config, baseline)
        result = session.run()
        assert all(st.merged for st in result.clients.values())
        # Clients drop frames under compute pressure (the 15 FPS effect).
        assert any(st.frames_dropped > 0 for st in result.clients.values())

    def test_baseline_client_cpu_much_higher_than_slam_share(self):
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        baseline = BaselineConfig(hold_down_frames=40)
        session = BaselineSession(_scenarios(), config, baseline)
        result = session.run()
        baseline_cores = result.clients[0].cpu.mean_cores()
        share_cores = RESULT.outcomes[0].client.cpu.mean_cores()
        assert baseline_cores > 10 * share_cores

    def test_baseline_sync_rounds_have_table4_components(self):
        config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
        baseline = BaselineConfig(hold_down_frames=40)
        session = BaselineSession(_scenarios(), config, baseline)
        result = session.run()
        rounds = [r for st in result.clients.values() for r in st.rounds]
        assert rounds
        for r in rounds:
            assert r.map_bytes > 0
            assert r.serialization_ms > 0
            assert r.deserialization_ms > r.serialization_ms
            assert r.merge_ms > 0


def _baseline(shaping):
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=False,
                             shaping=shaping)
    baseline = BaselineConfig(hold_down_frames=15)
    return BaselineSession(_scenarios(), config, baseline).run()


class TestBaselineMapTransfer:
    """The baseline's maps ride reliable (ARQ) messages, as over TCP."""

    def test_lossless_value_matches_analytic(self):
        # Each upload has the uplink to itself, so its transfer time is
        # the framed payload's transmission time at 9.4 Mbit/s.
        result = _baseline(PROFILE_BW_9_4)
        rounds = [r for st in result.clients.values() for r in st.rounds]
        assert len(rounds) >= 4
        for r in rounds:
            wire_bits = 8 * (r.map_bytes + FRAME_HEADER_BYTES)
            assert r.transfer1_ms == pytest.approx(
                wire_bits / PROFILE_BW_9_4.bandwidth_bps * 1e3, rel=1e-9)

    def test_lost_map_copies_do_not_wedge_the_client(self):
        # At 30 % loss some map copy is lost in nearly every round; ARQ
        # resends it, so every client keeps syncing to the end.
        result = _baseline(ShapingProfile("30% loss", loss_rate=0.30))
        for state in result.clients.values():
            assert len(state.rounds) >= 2
            assert state.pending_round is None
        assert sum(st.device_ep.retransmits + st.server_ep.retransmits
                   for st in result.clients.values()) > 0

    def test_a_transfer_given_up_frees_the_round(self):
        # Near-total loss exhausts the retry cap: the round is abandoned
        # rather than left pending forever.
        result = _baseline(ShapingProfile("dead link", loss_rate=0.999))
        for state in result.clients.values():
            assert state.pending_round is None
            assert state.rounds == []
            assert state.device_ep.n_dropped >= 1
