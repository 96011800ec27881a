"""Integration tests: tracking, local mapping and the full SlamSystem."""

import numpy as np
import pytest

from repro.datasets import euroc_dataset, kitti_dataset
from repro.imu import GRAVITY_W, ImuBuffer, preintegrate, synthesize_imu
from repro.metrics import absolute_trajectory_error
from repro.slam import SlamConfig, SlamSystem, Tracker
from repro.vision import FeatureSet, OrbExtractor, render_frame


def run_system(dataset, duration=None, mono_scale=1.0, oracle_seed=7,
               imu_seed=11, config=None, client_id=0, **oracle_kwargs):
    """Drive a SlamSystem through a dataset with IMU priors."""
    t0_pose = dataset.pose_cw(0)
    config = config or SlamConfig(mono_scale=mono_scale)
    system = SlamSystem(
        dataset.camera, config, client_id=client_id,
        gravity=t0_pose.rotation @ GRAVITY_W,
    )
    oracle = dataset.make_oracle(seed=oracle_seed, **oracle_kwargs)
    imu = ImuBuffer(
        synthesize_imu(dataset.ground_truth, rate_hz=200.0, seed=imu_seed)
    )
    prev = None
    lost = 0
    for ts, obs in dataset.frames(oracle):
        delta = preintegrate(imu, prev, ts) if prev is not None else None
        result = system.process_frame(ts, obs, imu_delta=delta)
        if not result.tracking.success:
            lost += 1
        prev = ts
    return system, lost


class TestSingleUserSlam:
    def test_euroc_tracking_accuracy(self):
        ds = euroc_dataset("MH04", duration=12.0, rate=10.0)
        system, lost = run_system(ds)
        assert lost == 0
        ate = absolute_trajectory_error(system.estimated_trajectory(),
                                        ds.ground_truth)
        # Paper target: single-user accuracy well under 10 cm.
        assert ate.rmse < 0.10

    def test_kitti_tracking_accuracy(self):
        ds = kitti_dataset("KITTI-05", duration=12.0, rate=10.0)
        system, lost = run_system(ds)
        assert lost <= 1
        ate = absolute_trajectory_error(system.estimated_trajectory(),
                                        ds.ground_truth)
        assert ate.rmse < 0.30  # vehicular scale (paper: ~1.7 m over 92 s)

    def test_map_grows_with_exploration(self):
        ds = euroc_dataset("MH04", duration=10.0, rate=10.0)
        system, _ = run_system(ds)
        assert system.map.n_keyframes >= 5
        assert system.map.n_mappoints > 200

    def test_mono_scale_ambiguity_applied(self):
        ds = euroc_dataset("MH04", duration=8.0, rate=10.0)
        scaled, _ = run_system(ds, mono_scale=0.7)
        unscaled, _ = run_system(ds, mono_scale=1.0)
        # The scaled map's trajectory is ~0.7x the metric one.
        len_scaled, len_unscaled = (
            np.linalg.norm(np.diff(s.estimated_trajectory().positions, axis=0), axis=1).sum()
            for s in (scaled, unscaled))
        assert len_scaled == pytest.approx(0.7 * len_unscaled, rel=0.05)

    def test_scale_aligned_ate_recovers_mono(self):
        ds = euroc_dataset("MH04", duration=8.0, rate=10.0)
        system, _ = run_system(ds, mono_scale=0.7)
        ate = absolute_trajectory_error(
            system.estimated_trajectory(), ds.ground_truth, with_scale=True
        )
        assert ate.rmse < 0.10
        assert ate.transform.scale == pytest.approx(1.0 / 0.7, rel=0.05)

    def test_tracking_without_prior_fails_gracefully(self):
        ds = euroc_dataset("MH04", duration=2.0, rate=10.0)
        system = SlamSystem(ds.camera, SlamConfig())
        oracle = ds.make_oracle()
        frames = list(ds.frames(oracle))
        system.process_frame(*frames[0])  # bootstrap
        # No IMU, no gravity: constant-velocity still tracks short term.
        result = system.process_frame(*frames[1])
        assert result.tracking.success

    def test_lost_frames_counted(self):
        ds = euroc_dataset("MH04", duration=2.0, rate=10.0)
        system = SlamSystem(ds.camera, SlamConfig())
        oracle = ds.make_oracle()
        frames = list(ds.frames(oracle))
        system.process_frame(*frames[0])
        system.process_frame(frames[1][0], FeatureSet())  # empty observation set
        assert len(system.estimated_trajectory()) == 1   # the lost frame left none

    def test_workload_accounting(self):
        ds = euroc_dataset("MH04", duration=3.0, rate=10.0)
        system, _ = run_system(ds, duration=3.0)
        # Exercise one more frame to check the workload fields.
        oracle = ds.make_oracle(seed=99)
        ts, obs = next(iter(ds.frames(oracle)))
        result = system.process_frame(ts + 100.0, obs)
        w = result.tracking.workload
        assert w.image_pixels > 0
        assert w.n_features == len(obs)

    def test_keyframe_interval_respected(self):
        ds = euroc_dataset("MH04", duration=8.0, rate=10.0)
        cfg = SlamConfig(keyframe_interval=4, keyframe_min_matches=1)
        system, _ = run_system(ds, config=cfg)
        n_frames = ds.n_frames
        assert system.map.n_keyframes >= n_frames // 5

    def test_retarget_to_transforms_state(self):
        from repro.geometry import Sim3
        from repro.slam import KeyframeDatabase, SlamMap

        ds = euroc_dataset("MH04", duration=4.0, rate=10.0)
        system, _ = run_system(ds)
        transform = Sim3(np.eye(3), np.array([5.0, 0.0, 0.0]), 1.0)
        old_traj = system.estimated_trajectory()
        new_map = SlamMap(map_id=42)
        new_db = KeyframeDatabase(system.vocabulary)
        system.retarget_to(new_map, new_db, transform)
        assert system.map is new_map
        new_traj = system.estimated_trajectory()
        assert np.allclose(
            new_traj.positions, old_traj.positions + [5.0, 0.0, 0.0]
        )


class TestFeatureBatch:
    """One ``FeatureSet`` from sensor to tracker, ground truth included."""

    def test_tracked_frames_carry_the_oracles_batch(self, monkeypatch):
        ds = euroc_dataset("MH04", duration=2.0, rate=10.0)
        observed, tracked = [], []
        oracle = ds.make_oracle()
        observe, track = oracle.observe, Tracker.track

        def recording_observe(*args):
            observed.append(observe(*args))
            return observed[-1]

        def recording_track(self, frame, **kwargs):
            tracked.append(frame)
            return track(self, frame, **kwargs)

        monkeypatch.setattr(oracle, "observe", recording_observe)
        monkeypatch.setattr(Tracker, "track", recording_track)
        system = SlamSystem(ds.camera, SlamConfig())
        for ts, features in ds.frames(oracle):
            system.process_frame(ts, features)
        assert len(tracked) == len(observed) - 1 > 10
        for frame, features in zip(tracked, observed[1:]):
            assert frame.features is features
            assert (frame.features.landmark_ids >= 0).all()
        # The ids are the landmarks the oracle projected.
        uv, _, _ = ds.camera.project_world(
            ds.world.positions[np.searchsorted(ds.world.ids, observed[1].landmark_ids)],
            ds.pose_cw(1))
        assert np.abs(uv - observed[1].uv).max() < 5 * 0.4

    def test_depthless_batch_does_not_bootstrap(self):
        # The pixel front end measures no depth: a keyframe made from its
        # batch would hold no map point, and every later frame would be
        # lost.  The system stays uninitialised until a frame can map.
        ds = euroc_dataset("MH04", duration=1.0, rate=10.0)
        image = render_frame(ds.world.positions, ds.world.ids, ds.camera, ds.pose_cw(0))
        extracted = OrbExtractor().extract(image)
        assert len(extracted) > 100 and (extracted.depths <= 0).all()
        system = SlamSystem(ds.camera, SlamConfig())
        for features in (extracted, FeatureSet()):
            result = system.process_frame(0.0, features)
            assert result.tracking.frame.features is features  # no adapter
            assert not result.tracking.success and result.keyframe is None
            assert system.map.n_keyframes == 0
        (ts, features), = ds.frames(ds.make_oracle(), limit=1)
        result = system.process_frame(ts, features)
        fresh = SlamSystem(ds.camera, SlamConfig()).process_frame(ts, features)
        assert result.tracking.success and system.map.n_keyframes >= 1
        assert result.keyframe.keyframe_id == fresh.keyframe.keyframe_id
        assert system.map.n_mappoints > 100
        assert len(system.estimated_trajectory()) == 1   # two lost frames left none


class TestLocalMapping:
    def test_cull_removes_unreliable_points(self):
        ds = euroc_dataset("MH04", duration=6.0, rate=10.0)
        system, _ = run_system(ds)
        # Force some points to look unreliable.
        for point in list(system.map.mappoints.values())[:20]:
            point.times_visible = 50
            point.times_found = 2
        removed = system.mapper.cull_mappoints()
        assert removed >= 20

    def test_fuse_prevents_duplicates(self):
        ds = euroc_dataset("MH04", duration=8.0, rate=10.0)
        system, _ = run_system(ds)
        # Count near-duplicate points (same landmark mapped twice).
        positions = np.array([p.position for p in system.map.mappoints.values()])
        from scipy.spatial import cKDTree

        tree = cKDTree(positions)
        pairs = tree.query_pairs(r=0.03)
        assert len(pairs) < len(positions) * 0.05
