"""Fine-grained unit tests for the tracking frontend and frame types."""

import numpy as np
import pytest

from repro.datasets import euroc_dataset
from repro.geometry import SE3
from repro.slam import Tracker, TrackerConfig, tracking
from repro.slam.frame import Frame
from repro.slam.keyframe import KeyFrame
from repro.slam.mappoint import MapPoint
from repro.vision import FeatureSet
from repro.vision.brief import DESCRIPTOR_BYTES
from tests.oracles import as_matches, search_by_projection_scalar
from tests.test_slam_system import run_system


def _features(n, uv=(5.0, 5.0), depth=5.0, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSet(
        np.tile(np.asarray(uv, dtype=float), (n, 1)),
        rng.integers(0, 256, (n, DESCRIPTOR_BYTES), dtype=np.uint8),
        depths=np.full(n, depth),
        landmark_ids=np.arange(n),
    )


class TestFrame:
    def test_from_observations(self):
        features = _features(5, uv=[10.0, 20.0])
        frame = Frame(3, 1.5, features)
        assert len(frame) == 5
        assert frame.frame_id == 3
        assert frame.features is features
        assert np.all(frame.matched_point_ids == -1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FeatureSet(
                uv=np.zeros((3, 2)),
                descriptors=np.zeros((2, DESCRIPTOR_BYTES), dtype=np.uint8),
                depths=np.zeros(3),
            )
        with pytest.raises(ValueError):
            Frame(0, 0.0, _features(3), matched_point_ids=np.full(2, -1))

    def test_empty_frame(self):
        frame = Frame(0, 0.0, FeatureSet())
        assert len(frame) == 0 and frame.matched_point_ids.shape == (0,)


class TestKeyFrame:
    def test_from_untracked_frame_rejected(self):
        frame = Frame(0, 0.0, _features(1))
        with pytest.raises(ValueError):
            KeyFrame.from_frame(0, frame)

    def test_observed_point_ids_and_lookup(self):
        frame = Frame(0, 0.0, _features(4))
        frame.pose_cw = SE3.identity()
        frame.matched_point_ids[:] = [7, -1, 9, 7]
        kf = KeyFrame.from_frame(1, frame)
        assert set(kf.observed_point_ids()) == {7, 9}
        assert kf.n_tracked_points == 3

    def test_camera_center(self):
        frame = Frame(0, 0.0, _features(1))
        frame.pose_cw = SE3(np.eye(3), np.array([1.0, 2.0, 3.0]))
        kf = KeyFrame.from_frame(0, frame)
        assert np.allclose(kf.camera_center(), [-1, -2, -3])


class TestMapPoint:
    def test_observation_bookkeeping(self):
        point = MapPoint(0, np.zeros(3), np.zeros(DESCRIPTOR_BYTES, np.uint8))
        point.add_observation(5, 2)
        point.add_observation(6, 3)
        assert point.n_observations == 2
        point.remove_observation(5)
        assert point.n_observations == 1
        point.remove_observation(99)  # no-op

    def test_found_ratio(self):
        point = MapPoint(0, np.zeros(3), np.zeros(DESCRIPTOR_BYTES, np.uint8))
        point.times_visible = 10
        point.times_found = 4
        assert point.found_ratio() == pytest.approx(0.4)
        point.times_visible = 0
        assert point.found_ratio() == 0.0


class TestTracker:
    @pytest.fixture(scope="class")
    def mapped(self):
        ds = euroc_dataset("MH04", duration=6.0, rate=10.0)
        system, _ = run_system(ds)
        return ds, system

    def test_predict_pose_none_before_first_track(self, mapped):
        ds, _ = mapped
        from repro.slam import SlamMap

        tracker = Tracker(SlamMap(), ds.camera)
        assert tracker.predict_pose() is None

    def test_force_pose_resets_velocity(self, mapped):
        ds, system = mapped
        pose = SE3(np.eye(3), np.array([1.0, 0, 0]))
        system.tracker.force_pose(pose)
        assert system.tracker.predict_pose().almost_equal(pose, 1e-12, 1e-12)

    def test_track_fails_without_local_map(self, mapped):
        ds, _ = mapped
        from repro.slam import SlamMap

        tracker = Tracker(SlamMap(), ds.camera)
        tracker.force_pose(SE3.identity())
        oracle = ds.make_oracle(seed=50)
        obs = oracle.observe(ds.world.positions, ds.world.ids, ds.pose_cw(0))
        frame = Frame(0, 0.0, obs)
        result = tracker.track(frame)
        assert not result.success
        assert result.workload.n_local_points == 0

    def test_track_populates_workload(self, mapped):
        ds, system = mapped
        oracle = ds.make_oracle(seed=51)
        idx = 55
        obs = oracle.observe(ds.world.positions, ds.world.ids, ds.pose_cw(idx))
        frame = Frame(999, 100.0, obs)
        prior = ds.pose_cw(idx) * ds.pose_cw(0).inverse()
        result = system.tracker.track(frame, pose_prior=prior)
        assert result.success
        w = result.workload
        assert w.n_features == len(obs)
        assert w.candidate_pairs > 0
        assert w.n_matches == result.n_matches

    def test_track_marks_inlier_points(self, mapped):
        ds, system = mapped
        oracle = ds.make_oracle(seed=52)
        idx = 50
        obs = oracle.observe(ds.world.positions, ds.world.ids, ds.pose_cw(idx))
        frame = Frame(999, 200.0, obs)
        prior = ds.pose_cw(idx) * ds.pose_cw(0).inverse()
        result = system.tracker.track(frame, pose_prior=prior)
        assert result.success
        assert int((frame.matched_point_ids >= 0).sum()) == result.n_matches
        for pid in frame.matched_point_ids[frame.matched_point_ids >= 0][:10]:
            assert int(pid) in system.map.mappoints

    def test_scalar_backend_tracks_too(self, mapped, monkeypatch):
        # The retired tier rebuilt in place: over the CPU-sequential
        # search the tracker must land on the same matches and pose.
        ds, system = mapped
        oracle = ds.make_oracle(seed=53)
        idx = 50
        obs = oracle.observe(ds.world.positions, ds.world.ids, ds.pose_cw(idx))
        prior = ds.pose_cw(idx) * ds.pose_cw(0).inverse()

        def track():
            tracker = Tracker(
                system.map, ds.camera, TrackerConfig(local_map_size=150)
            )
            tracker.reference_keyframe_id = system.tracker.reference_keyframe_id
            frame = Frame(999, 300.0, obs)
            return tracker.track(frame, pose_prior=prior)

        vectorized = track()
        monkeypatch.setattr(
            tracking, "search_by_projection_vectorized",
            lambda proj_uv, point_desc, frame_uv, frame_desc, radius,
                   point_rows, **_:
                as_matches(search_by_projection_scalar(
                    proj_uv, point_desc[point_rows], frame_uv, frame_desc,
                    radius=radius)),
        )
        scalar = track()
        assert scalar.success
        assert scalar.n_matches == vectorized.n_matches
        assert scalar.frame.pose_cw.almost_equal(
            vectorized.frame.pose_cw, 1e-12, 1e-12)
