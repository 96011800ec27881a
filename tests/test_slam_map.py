"""Tests for the map data structures and id allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Sim3
from repro.slam import CLIENT_ID_STRIDE, IdAllocator
from tests.test_net_serialization_transport import make_map


class TestIdAllocator:
    def test_sequential(self):
        alloc = IdAllocator(0)
        assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]

    def test_client_ranges_disjoint(self):
        a = IdAllocator(0)
        b = IdAllocator(1)
        ids_a = {a.allocate() for _ in range(100)}
        ids_b = {b.allocate() for _ in range(100)}
        assert not (ids_a & ids_b)

    def test_owner_of(self):
        alloc = IdAllocator(3)
        assert IdAllocator.owner_of(alloc.allocate()) == 3

    def test_negative_client_rejected(self):
        with pytest.raises(ValueError):
            IdAllocator(-1)

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_property_cross_client_uniqueness(self, c1, c2):
        if c1 == c2:
            return
        assert IdAllocator(c1).allocate() != IdAllocator(c2).allocate()


class TestSlamMap:
    def test_add_and_counts(self):
        slam_map = make_map(n_keyframes=3, n_points_per_kf=5)
        assert slam_map.n_keyframes == 3
        assert slam_map.n_mappoints == 15

    def test_duplicate_keyframe_rejected(self):
        slam_map = make_map(n_keyframes=1)
        kf = next(iter(slam_map.keyframes.values()))
        with pytest.raises(ValueError):
            slam_map.add_keyframe(kf)

    def test_covisibility_via_shared_points(self):
        slam_map = make_map(n_keyframes=2, n_points_per_kf=6, seed=1)
        kfs = sorted(slam_map.keyframes)
        # Make kf1 observe 3 points of kf0.
        kf0, kf1 = slam_map.keyframes[kfs[0]], slam_map.keyframes[kfs[1]]
        for i in range(3):
            pid = int(kf0.point_ids[i])
            kf1.point_ids[i] = pid
            slam_map.mappoints[pid].add_observation(kf1.keyframe_id, i)
        slam_map.rebuild_covisibility()
        assert kfs[1] in slam_map.covisibility[kfs[0]]
        assert slam_map.covisibility[kfs[0]][kfs[1]] == 3
        assert slam_map.covisibility[kfs[1]][kfs[0]] == 3
        assert slam_map.covisible_keyframes(kfs[0]) == [kfs[1]]

    def test_remove_keyframe_clears_observations(self):
        slam_map = make_map(n_keyframes=2, seed=2)
        kf_id = next(iter(slam_map.keyframes))
        kf = slam_map.keyframes[kf_id]
        observed = [int(p) for p in kf.observed_point_ids()]
        slam_map.remove_keyframe(kf_id)
        assert kf_id not in slam_map.keyframes
        for pid in observed:
            assert kf_id not in slam_map.mappoints[pid].observations

    def test_remove_mappoint_clears_keyframe_refs(self):
        slam_map = make_map(n_keyframes=1, seed=3)
        kf = next(iter(slam_map.keyframes.values()))
        pid = int(kf.point_ids[0])
        slam_map.remove_mappoint(pid)
        assert pid not in slam_map.mappoints
        assert kf.point_ids[0] == -1

    def test_replace_mappoint_fuses_observations(self):
        slam_map = make_map(n_keyframes=2, seed=4)
        kfs = sorted(slam_map.keyframes)
        kf0 = slam_map.keyframes[kfs[0]]
        kf1 = slam_map.keyframes[kfs[1]]
        old_id = int(kf0.point_ids[0])
        new_id = int(kf1.point_ids[0])
        slam_map.replace_mappoint(old_id, new_id)
        assert old_id not in slam_map.mappoints
        assert kf0.point_ids[0] == new_id
        assert kfs[0] in slam_map.mappoints[new_id].observations

    def test_replace_same_id_noop(self):
        slam_map = make_map(n_keyframes=1, seed=5)
        pid = next(iter(slam_map.mappoints))
        slam_map.replace_mappoint(pid, pid)
        assert pid in slam_map.mappoints

    def test_local_map_points_oldest_first(self):
        slam_map = make_map(n_keyframes=3, seed=6)
        points = slam_map.local_map_points(sorted(slam_map.keyframes, reverse=True))
        ids = [p.point_id for p in points]
        assert ids == sorted(ids)

    def test_local_map_points_limit(self):
        slam_map = make_map(n_keyframes=3, n_points_per_kf=10, seed=7)
        points = slam_map.local_map_points(slam_map.keyframes, limit=5)
        assert len(points) == 5

    def test_keyframes_of_client(self):
        slam_map = make_map(n_keyframes=2, client_id=1, seed=8)
        assert len(slam_map.keyframes_of_client(1)) == 2
        assert slam_map.keyframes_of_client(0) == []

    def test_apply_transform_to_client(self):
        slam_map = make_map(n_keyframes=2, client_id=1, seed=9)
        transform = Sim3(np.eye(3), np.array([10.0, 0.0, 0.0]), 1.0)
        before = {
            pid: p.position.copy() for pid, p in slam_map.mappoints.items()
        }
        centers_before = {
            kid: kf.camera_center().copy() for kid, kf in slam_map.keyframes.items()
        }
        slam_map.apply_transform_to_client(transform, client_id=1)
        for pid, p in slam_map.mappoints.items():
            assert np.allclose(p.position, before[pid] + [10, 0, 0])
        for kid, kf in slam_map.keyframes.items():
            assert np.allclose(
                kf.camera_center(), centers_before[kid] + [10, 0, 0], atol=1e-9
            )

    def test_keyframe_trajectory_sorted(self):
        slam_map = make_map(n_keyframes=4, seed=11)
        traj = slam_map.keyframe_trajectory()
        times = traj.timestamps
        assert np.all(np.diff(times) > 0)

    def test_nbytes_positive_and_growing(self):
        small = make_map(n_keyframes=1, seed=12).nbytes()
        large = make_map(n_keyframes=4, seed=12).nbytes()
        assert 0 < small < large

    def test_stride_large_enough_for_long_runs(self):
        # 10M ids per client: a 75 s trace at 30 FPS creates ~300
        # keyframes and ~50k points; huge headroom.
        assert CLIENT_ID_STRIDE >= 1_000_000
