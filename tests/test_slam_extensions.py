"""Tests for relocalization, pose-graph optimization and loop closing."""

import numpy as np
import pytest

from repro.datasets import euroc_dataset
from repro.geometry import SE3
from repro.metrics import absolute_trajectory_error
from repro.slam import (
    LoopCloser,
    LoopCloserConfig,
    PoseGraphEdge,
    Relocalizer,
    SlamConfig,
    build_essential_graph,
    optimize_pose_graph,
)
from repro.slam.frame import Frame
from repro.vision import FeatureSet
from tests.test_slam_system import run_system


@pytest.fixture(scope="module")
def mapped_system():
    ds = euroc_dataset("MH04", duration=10.0, rate=10.0)
    system, lost = run_system(ds)
    assert lost == 0
    return ds, system


class TestRelocalizer:
    def test_relocalizes_revisit_frame(self, mapped_system):
        ds, system = mapped_system
        # A fresh observation of a place already in the map, no prior.
        oracle = ds.make_oracle(seed=77)
        idx = 30
        obs = oracle.observe(ds.world.positions, ds.world.ids, ds.pose_cw(idx))
        frame = Frame(9999, 999.0, obs)
        reloc = Relocalizer(system.map, system.database, system.vocabulary,
                            ds.camera)
        result = reloc.relocalize(frame)
        assert result.success
        # Recovered pose close to where the map says that view was.
        expected = ds.pose_cw(idx) * ds.pose_cw(0).inverse()
        rot_err, trans_err = result.pose_cw.distance(expected)
        assert trans_err < 0.15

    def test_fails_on_unseen_place(self, mapped_system):
        ds, system = mapped_system
        other = euroc_dataset("V202", duration=2.0, rate=10.0)
        oracle = other.make_oracle(seed=78)
        obs = oracle.observe(other.world.positions, other.world.ids,
                             other.pose_cw(0))
        frame = Frame(9999, 999.0, obs)
        reloc = Relocalizer(system.map, system.database, system.vocabulary,
                            other.camera)
        assert not reloc.relocalize(frame).success

    def test_fails_on_empty_frame(self, mapped_system):
        ds, system = mapped_system
        reloc = Relocalizer(system.map, system.database, system.vocabulary,
                            ds.camera)
        frame = Frame(9999, 999.0, FeatureSet())
        assert not reloc.relocalize(frame).success

    def test_system_recovers_after_blackout(self):
        """End-to-end: feature blackout loses tracking; the system
        relocalizes when features return at a mapped place."""
        ds = euroc_dataset("MH04", duration=10.0, rate=10.0)
        from repro.imu import GRAVITY_W, ImuBuffer, preintegrate, synthesize_imu
        from repro.slam import SlamSystem

        system = SlamSystem(
            ds.camera, SlamConfig(relocalize_on_loss=True),
            gravity=ds.pose_cw(0).rotation @ GRAVITY_W,
        )
        oracle = ds.make_oracle()
        imu = ImuBuffer(synthesize_imu(ds.ground_truth, rate_hz=200.0))
        prev = None
        statuses = []
        for i, (ts, obs) in enumerate(ds.frames(oracle)):
            delta = preintegrate(imu, prev, ts) if prev is not None else None
            if 40 <= i < 55:
                obs = FeatureSet()  # camera covered: total feature blackout
            result = system.process_frame(ts, obs, imu_delta=delta)
            statuses.append(result.tracking.success)
            prev = ts
        # Lost during the blackout, tracking again afterwards.
        assert not all(statuses[40:55])
        assert any(statuses[58:])
        assert system.n_relocalizations >= 1
        ate = absolute_trajectory_error(
            system.estimated_trajectory(), ds.ground_truth
        )
        assert ate.rmse < 0.10


class TestPoseGraph:
    def _chain_map(self, n=12, drift_per_step=0.05, seed=0):
        """A keyframe chain with injected odometry drift and a loop edge
        back to the start carrying the true correction."""
        from tests.test_net_serialization_transport import make_map

        slam_map = make_map(n_keyframes=n, n_points_per_kf=6, seed=seed)
        ordered = sorted(slam_map.keyframes)
        # True poses: identity translations along x; corrupt with drift.
        for k, kf_id in enumerate(ordered):
            true_pose = SE3(np.eye(3), np.array([0.5 * k, 0.0, 0.0]))
            drift = SE3(np.eye(3), np.array([0.0, drift_per_step * k, 0.0]))
            slam_map.keyframes[kf_id].pose_cw = drift * true_pose
        return slam_map, ordered

    def test_build_essential_graph_connected(self, mapped_system):
        _, system = mapped_system
        edges = build_essential_graph(system.map)
        nodes = set()
        for e in edges:
            nodes.add(e.kf_a)
            nodes.add(e.kf_b)
        assert nodes == set(system.map.keyframes)

    def test_optimization_reduces_residual_with_loop_edge(self):
        slam_map, ordered = self._chain_map()
        first, last = ordered[0], ordered[-1]
        true_first = SE3(np.eye(3), np.array([0.0, 0.0, 0.0]))
        true_last = SE3(np.eye(3), np.array([0.5 * (len(ordered) - 1), 0, 0]))
        loop = PoseGraphEdge(
            kf_a=last, kf_b=first,
            relative=true_last * true_first.inverse(),
            weight=200.0, is_loop_edge=True,
        )
        edges = build_essential_graph(slam_map, extra_edges=[loop])
        stats = optimize_pose_graph(slam_map, edges, fixed={first})
        assert stats.final_residual < stats.initial_residual
        # The far end of the chain moved toward its true pose.
        _, err = slam_map.keyframes[last].pose_cw.distance(true_last)
        assert err < 0.05 * len(ordered) * 0.5  # well below raw drift

    def test_fixed_pose_untouched(self):
        slam_map, ordered = self._chain_map(seed=1)
        anchor = ordered[0]
        before = slam_map.keyframes[anchor].pose_cw
        edges = build_essential_graph(slam_map)
        optimize_pose_graph(slam_map, edges, fixed={anchor})
        assert slam_map.keyframes[anchor].pose_cw.almost_equal(before,
                                                               1e-12, 1e-12)

    def test_points_follow_their_anchor(self):
        slam_map, ordered = self._chain_map(seed=2)
        kf_last = slam_map.keyframes[ordered[-1]]
        pid = int(kf_last.point_ids[0])
        point = slam_map.mappoints[pid]
        cam_before = kf_last.pose_cw.apply(point.position)
        loop = PoseGraphEdge(
            kf_a=ordered[-1], kf_b=ordered[0],
            relative=SE3(np.eye(3), np.array([0.5 * (len(ordered) - 1), 0, 0])),
            weight=200.0, is_loop_edge=True,
        )
        edges = build_essential_graph(slam_map, extra_edges=[loop])
        optimize_pose_graph(slam_map, edges, fixed={ordered[0]})
        cam_after = kf_last.pose_cw.apply(point.position)
        # The point stays rigid in its anchor camera's frame.
        assert np.allclose(cam_before, cam_after, atol=1e-9)


class TestLoopCloser:
    def test_loop_detected_on_revisit(self):
        """A drone lapping the hall twice revisits its starting view."""
        ds = euroc_dataset("MH04", duration=45.0, rate=6.0)
        from repro.imu import GRAVITY_W, ImuBuffer, preintegrate, synthesize_imu
        from repro.slam import SlamSystem

        system = SlamSystem(
            ds.camera,
            SlamConfig(loop_closing=True),
            gravity=ds.pose_cw(0).rotation @ GRAVITY_W,
        )
        # Ensure a generous temporal gap requirement is satisfiable: the
        # lap period is 40 s.
        system.loop_closer.config = LoopCloserConfig(min_temporal_gap_s=15.0)
        oracle = ds.make_oracle()
        imu = ImuBuffer(synthesize_imu(ds.ground_truth, rate_hz=200.0))
        prev = None
        for ts, obs in ds.frames(oracle):
            delta = preintegrate(imu, prev, ts) if prev is not None else None
            system.process_frame(ts, obs, imu_delta=delta)
            prev = ts
        assert len(system.loop_closer.closed_loops) >= 1
        loop = system.loop_closer.closed_loops[0]
        assert loop.n_correspondences >= 12
        # Accuracy not harmed by the pose-graph pass.
        ate = absolute_trajectory_error(
            system.estimated_trajectory(), ds.ground_truth
        )
        assert ate.rmse < 0.10

    def test_no_loop_without_revisit(self, mapped_system):
        ds, system = mapped_system
        closer = LoopCloser(system.map, system.database, ds.camera,
                            LoopCloserConfig(min_temporal_gap_s=8.0))
        newest = max(system.map.keyframes.values(), key=lambda k: k.timestamp)
        result = closer.try_close(newest)
        # 10 s of a 40 s lap: nothing older than the gap looks the same.
        assert not result.detected
