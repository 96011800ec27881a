"""Tests for synthetic worlds, trajectories and named datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    PAPER_TRACES,
    drone_ellipse_trajectory,
    drone_room_world,
    euroc_dataset,
    kitti_dataset,
    look_rotation,
    make_dataset,
    path_trajectory,
    rounded_rectangle_polyline,
    street_world,
)
from repro.geometry import quaternion


class TestWorlds:
    def test_drone_room_extent(self):
        world = drone_room_world(size=(20.0, 15.0, 8.0))
        lo, hi = world.positions.min(axis=0), world.positions.max(axis=0)
        assert np.allclose(lo, [-10, -7.5, 0], atol=0.5)
        assert np.allclose(hi, [10, 7.5, 8], atol=0.5)

    def test_landmark_count_and_unique_ids(self):
        world = drone_room_world(n_landmarks=800)
        assert len(world.ids) == pytest.approx(800, abs=10)
        assert len(np.unique(world.ids)) == len(world.ids)

    def test_deterministic_by_seed(self):
        a = drone_room_world(seed=5)
        b = drone_room_world(seed=5)
        assert np.allclose(a.positions, b.positions)

    def test_street_world_follows_circuit(self):
        world = street_world(circuit=(100.0, 80.0))
        lo, hi = world.positions.min(axis=0), world.positions.max(axis=0)
        assert hi[0] - lo[0] > 90
        assert (world.positions[:, 2] >= 0).all()

    def test_world_validation(self):
        from repro.datasets.world import World

        with pytest.raises(ValueError):
            World(np.zeros((3, 3)), np.array([0, 0, 1]))  # dup ids
        with pytest.raises(ValueError):
            World(np.zeros((3, 3)), np.array([0, 1]))  # length mismatch


class TestLookRotation:
    def test_forward_maps_to_optical_axis(self):
        fwd = np.array([1.0, 0.0, 0.0])
        rot = look_rotation(fwd)
        assert np.allclose(rot @ np.array([0, 0, 1]), fwd, atol=1e-12)

    def test_orthonormal(self):
        rot = look_rotation(np.array([0.3, -0.8, 0.1]), pitch_down=0.1)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_pitch_down_tilts_axis(self):
        rot = look_rotation(np.array([1.0, 0.0, 0.0]), pitch_down=0.2)
        optical = rot @ np.array([0, 0, 1])
        assert optical[2] == pytest.approx(-np.sin(0.2))

    def test_vertical_forward_rejected(self):
        with pytest.raises(ValueError):
            look_rotation(np.array([0.0, 0.0, 1.0]))


class TestTrajectories:
    def test_drone_ellipse_stays_on_ellipse(self):
        traj = drone_ellipse_trajectory(duration=10.0, rate=10.0,
                                        semi_axes=(7.0, 5.0),
                                        height_amplitude=0.0)
        pos = traj.positions
        val = (pos[:, 0] / 7.0) ** 2 + (pos[:, 1] / 5.0) ** 2
        assert np.allclose(val, 1.0, atol=1e-9)

    def test_drone_frame_rate(self):
        traj = drone_ellipse_trajectory(duration=2.0, rate=30.0)
        assert len(traj) == 60
        assert np.allclose(np.diff(traj.timestamps), 1.0 / 30.0)

    def test_camera_looks_along_velocity(self):
        traj = drone_ellipse_trajectory(duration=5.0, rate=10.0, pitch_down=0.0)
        vel = traj.velocities()
        for i in range(5, 20):
            optical = quaternion.to_matrix(traj[i].orientation) @ np.array([0, 0, 1])
            v = vel[i] / np.linalg.norm(vel[i])
            # Horizontal components aligned.
            assert np.dot(optical[:2], v[:2]) > 0.95

    def test_rounded_rectangle_closed_and_smooth(self):
        poly = rounded_rectangle_polyline(100.0, 60.0, corner_radius=10.0)
        seg = np.linalg.norm(np.diff(poly, axis=0), axis=1)
        assert seg.max() < 2.0  # dense
        with pytest.raises(ValueError):
            rounded_rectangle_polyline(10.0, 10.0, corner_radius=6.0)

    def test_path_trajectory_constant_speed(self):
        poly = rounded_rectangle_polyline(100.0, 60.0)
        traj = path_trajectory(poly, speed=8.0, duration=10.0, rate=10.0)
        d = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        assert np.median(d) == pytest.approx(0.8, rel=0.05)

    def test_path_trajectory_start_offset(self):
        poly = rounded_rectangle_polyline(100.0, 60.0)
        a = path_trajectory(poly, speed=8.0, duration=2.0, start_arclength=0.0)
        b = path_trajectory(poly, speed=8.0, duration=2.0, start_arclength=50.0)
        assert np.linalg.norm(a.positions[0] - b.positions[0]) > 10.0


class TestNamedDatasets:
    def test_paper_trace_table(self):
        assert PAPER_TRACES["MH04"] == (68.0, 2032)
        assert PAPER_TRACES["KITTI-00"] == (151.0, 4541)

    def test_mh04_mh05_share_world(self):
        a = euroc_dataset("MH04", duration=2.0)
        b = euroc_dataset("MH05", duration=2.0)
        assert np.allclose(a.world.positions, b.world.positions)

    def test_v202_separate_world(self):
        a = euroc_dataset("MH04", duration=2.0)
        v = euroc_dataset("V202", duration=2.0)
        assert len(a.world.ids) != len(v.world.ids) or not np.allclose(
            a.world.positions[: len(v.world.ids)], v.world.positions
        )

    def test_default_duration_matches_paper(self):
        ds = euroc_dataset("MH04", rate=30.0)
        times = ds.ground_truth.timestamps
        assert times[-1] - times[0] == pytest.approx(68.0, abs=0.2)
        assert ds.n_frames == pytest.approx(2032, abs=10)

    def test_kitti_split_overlaps_spatially(self):
        a = kitti_dataset("KITTI-05", duration=20.0, start_arclength=0.0)
        b = kitti_dataset("KITTI-05", duration=20.0, start_arclength=200.0)
        assert np.allclose(a.world.positions, b.world.positions)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            euroc_dataset("MH99")
        with pytest.raises(ValueError):
            kitti_dataset("KITTI-07")

    def test_make_dataset_dispatch(self):
        assert make_dataset("KITTI-05", duration=1.0).name == "KITTI-05"
        assert make_dataset("MH04", duration=1.0).name == "MH04"

    def test_frames_iterator(self):
        ds = euroc_dataset("MH04", duration=2.0, rate=10.0)
        frames = list(ds.frames(stride=2, limit=5))
        assert len(frames) == 5
        ts, obs = frames[0]
        assert len(obs) > 20

    def test_observations_visible_in_camera(self):
        ds = euroc_dataset("MH04", duration=2.0, rate=10.0)
        oracle = ds.make_oracle()
        for i in (0, 5, 10):
            obs = oracle.observe(
                ds.world.positions, ds.world.ids, ds.pose_cw(i)
            )
            assert len(obs) > 20
            assert ((0 <= obs.uv[:, 0]) & (obs.uv[:, 0] < ds.camera.width)).all()
            assert (obs.depths > 0).all()

    @given(st.sampled_from(["MH04", "MH05", "V202", "KITTI-00", "KITTI-05"]))
    @settings(max_examples=5, deadline=None)
    def test_property_all_traces_buildable(self, name):
        ds = make_dataset(name, duration=1.0, rate=10.0)
        assert ds.n_frames == 10
