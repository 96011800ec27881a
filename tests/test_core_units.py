"""Unit tests for core components: client, server, configs, cost models."""

import numpy as np
import pytest

from repro.core import (
    MergeCostModel,
    SlamShareClient,
    SlamShareConfig,
    SlamShareServer,
)
from repro.datasets import euroc_dataset
from repro.geometry import SE3, Sim3, so3
from repro.imu import GRAVITY_W, ImuDelta


def _client(config=None):
    return SlamShareClient(
        client_id=0,
        config=config or SlamShareConfig(render_video_frames=False),
        initial_pose_bw=SE3.identity(),
        gravity_map=GRAVITY_W,
    )


def _delta(t0, t1):
    return ImuDelta(t0, t1)


class TestSlamShareClient:
    def test_capture_without_pixels_uses_nominal_bytes(self):
        client = _client()
        upload = client.capture_frame(0.0, None, pixels=None, nominal_bytes=1234)
        assert upload.video_bytes == 1234
        assert upload.frame_index == 0

    def test_capture_with_pixels_encodes_real_bytes(self):
        client = _client()
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(60, 80), dtype=np.uint8)
        upload = client.capture_frame(0.0, None, pixels=pixels)
        assert upload.video_bytes > 0
        assert client.stream_stats.n_frames == 1

    def test_display_trajectory_grows_per_frame(self):
        client = _client()
        for i in range(5):
            delta = _delta(i * 0.1, (i + 1) * 0.1) if i else None
            client.capture_frame(i * 0.1, delta)
        assert len(client.displayed_trajectory()) == 5

    def test_stale_pose_dropped_after_merge(self):
        client = _client()
        client.capture_frame(0.0, None)
        client.capture_frame(0.1, _delta(0.0, 0.1))
        client.apply_merge_transform(
            Sim3(np.eye(3), np.array([5.0, 0, 0]), 1.0), GRAVITY_W
        )
        pos_after_merge = client.motion_model.states[1].position.copy()
        # A pose computed pre-merge (old frame) arrives now: must be ignored.
        client.receive_server_pose(0, SE3.identity())
        assert np.allclose(
            client.motion_model.states[1].position, pos_after_merge
        )

    def test_merge_transform_moves_display_history(self):
        client = _client()
        client.capture_frame(0.0, None)
        client.capture_frame(0.1, _delta(0.0, 0.1))
        before = client.displayed_trajectory().positions.copy()
        shift = Sim3(np.eye(3), np.array([2.0, -1.0, 0.5]), 1.0)
        client.apply_merge_transform(shift, GRAVITY_W)
        after = client.displayed_trajectory().positions
        assert np.allclose(after, before + [2.0, -1.0, 0.5], atol=1e-9)
        assert client.merged

    def test_merge_transform_rotates_gravity(self):
        client = _client()
        client.capture_frame(0.0, None)
        rot = so3.exp(np.array([0.0, 0.0, np.pi / 2]))
        new_gravity = rot @ GRAVITY_W
        client.apply_merge_transform(
            Sim3(rot, np.zeros(3), 1.0), new_gravity
        )
        assert np.allclose(client.motion_model.gravity, new_gravity)

    def test_cpu_accounting_accumulates(self):
        client = _client()
        for i in range(10):
            delta = _delta(i * 0.1, (i + 1) * 0.1) if i else None
            client.capture_frame(i * 0.1, delta)
        sample = client.cpu.close_window(1.0)
        assert sample.utilization_pct > 0


class TestSlamShareServer:
    def _server(self):
        ds = euroc_dataset("MH04", duration=2.0, rate=10.0)
        config = SlamShareConfig(render_video_frames=False)
        return ds, SlamShareServer(ds.camera, config)

    def test_duplicate_client_rejected(self):
        ds, server = self._server()
        server.add_client(0, GRAVITY_W)
        with pytest.raises(ValueError):
            server.add_client(0, GRAVITY_W)

    def test_first_client_is_global(self):
        ds, server = self._server()
        server.add_client(0, GRAVITY_W)
        server.add_client(1, GRAVITY_W)
        assert server.processes[0].merged
        assert not server.processes[1].merged
        assert server.processes[0].system.map is server.global_map

    def test_gpu_share_modes(self):
        ds, server = self._server()
        assert server.gpu_share() == 1.0
        server.add_client(0, GRAVITY_W)
        assert server.gpu_share() == 1.0
        server.add_client(1, GRAVITY_W)
        assert server.gpu_share() == pytest.approx(0.5)

    def test_process_frame_publishes_keyframes(self):
        ds, server = self._server()
        server.add_client(0, ds.pose_cw(0).rotation @ GRAVITY_W)
        oracle = ds.make_oracle()
        wrote = 0
        for ts, obs in ds.frames(oracle):
            result = server.process_frame(0, ts, obs)
            wrote += result.store_bytes_written
        assert wrote > 0
        assert server.store.stats().n_keyframes == server.global_map.n_keyframes

    def test_tracking_latency_reported(self):
        ds, server = self._server()
        server.add_client(0, ds.pose_cw(0).rotation @ GRAVITY_W)
        oracle = ds.make_oracle()
        ts, obs = next(iter(ds.frames(oracle)))
        result = server.process_frame(0, ts, obs)
        assert result.latency.total > 0
        assert result.latency.orb_extraction > 0


class TestMergeCostModel:
    def test_slam_share_merge_near_paper_value(self):
        model = MergeCostModel()
        # One BoW query, ~200 fused points — the common case we observe.
        ms = model.slam_share_merge_ms(1, 200)
        assert 120 < ms < 200

    def test_baseline_merge_scales_with_map(self):
        model = MergeCostModel()
        small = model.baseline_merge_ms(5, 100, n_map_keyframes=10)
        large = model.baseline_merge_ms(5, 100, n_map_keyframes=70)
        assert large > small
        # Paper scale: ~70-keyframe global map costs seconds.
        assert large > 2000

    def test_components_monotone(self):
        model = MergeCostModel()
        assert model.slam_share_merge_ms(10, 0) > model.slam_share_merge_ms(1, 0)
        assert model.slam_share_merge_ms(1, 500) > model.slam_share_merge_ms(1, 0)
