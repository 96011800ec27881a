"""Tests for IMU synthesis, preintegration and the Alg. 1 motion model."""

import numpy as np
import pytest

from repro.geometry import SE3, Trajectory, quaternion
from repro.imu import (
    ClientMotionModel,
    FusionConfig,
    ImuBuffer,
    ImuNoiseModel,
    ImuState,
    preintegrate,
    propagate,
    synthesize_imu,
)


def _line_trajectory(duration=4.0, rate=20.0, speed=1.0):
    times = np.arange(0, duration, 1.0 / rate)
    pos = np.column_stack([speed * times, np.zeros_like(times), np.zeros_like(times)])
    return Trajectory.from_arrays(times, pos)


def _circle_trajectory(duration=5.0, knot_rate=100.0, radius=3.0, period=10.0):
    times = np.arange(0, duration, 1.0 / knot_rate)
    theta = 2 * np.pi * times / period
    pos = np.column_stack(
        [radius * np.cos(theta), radius * np.sin(theta), np.zeros_like(times)]
    )
    return Trajectory.from_arrays(times, pos)


class TestSynthesis:
    def test_static_reads_gravity(self):
        times = np.arange(0, 2, 0.05)
        pos = np.zeros((len(times), 3))
        # Strictly increasing positions required? No — static is fine.
        traj = Trajectory.from_arrays(times, pos)
        samples = synthesize_imu(traj, rate_hz=100.0, with_noise=False)
        accel = np.array([s.accel for s in samples])
        assert np.allclose(accel.mean(axis=0), [0, 0, 9.81], atol=1e-6)
        gyro = np.array([s.gyro for s in samples])
        assert np.allclose(gyro, 0, atol=1e-9)

    def test_constant_velocity_zero_world_accel(self):
        samples = synthesize_imu(_line_trajectory(), rate_hz=100.0, with_noise=False)
        accel = np.array([s.accel for s in samples])
        # Specific force is just -gravity in the (identity-oriented) body.
        assert np.allclose(accel, [0, 0, 9.81], atol=1e-6)

    def test_sample_rate(self):
        traj = _line_trajectory(duration=2.0)
        samples = synthesize_imu(traj, rate_hz=200.0)
        dt = np.diff([s.timestamp for s in samples])
        assert np.allclose(dt, 0.005, atol=1e-9)

    def test_noise_changes_measurements(self):
        traj = _line_trajectory()
        clean = synthesize_imu(traj, rate_hz=100.0, with_noise=False)
        noisy = synthesize_imu(traj, rate_hz=100.0, with_noise=True, seed=1)
        a_clean = np.array([s.accel for s in clean])
        a_noisy = np.array([s.accel for s in noisy])
        assert not np.allclose(a_clean, a_noisy)
        assert np.abs(a_noisy - a_clean).mean() < 0.1  # still MEMS-small

    def test_too_short_trajectory_rejected(self):
        times = [0.0, 0.1]
        traj = Trajectory.from_arrays(times, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            synthesize_imu(traj)

    def test_noise_model_scaling(self):
        noise = ImuNoiseModel()
        assert noise.gyro_sigma(400.0) == pytest.approx(
            noise.gyro_sigma(100.0) * 2.0
        )


class TestPreintegration:
    def test_dead_reckon_circle(self):
        traj = _circle_trajectory()
        samples = synthesize_imu(traj, rate_hz=200.0, with_noise=False)
        v0 = np.array([0.0, 3.0 * 2 * np.pi / 10.0, 0.0])
        state = ImuState(np.eye(3), traj[0].position, v0, 0.0)
        for i in range(1, len(traj)):
            delta = preintegrate(samples, traj[i - 1].timestamp, traj[i].timestamp)
            state = propagate(state, delta)
        assert np.linalg.norm(state.position - traj[-1].position) < 0.05

    def test_empty_interval_is_identity(self):
        delta = preintegrate([], 0.0, 0.1)
        assert np.allclose(delta.delta_r, np.eye(3))
        assert np.allclose(delta.delta_p, 0)
        assert delta.dt == pytest.approx(0.1)

    def test_buffer_matches_list(self):
        traj = _circle_trajectory(duration=2.0)
        samples = synthesize_imu(traj, rate_hz=200.0, with_noise=False)
        buffer = ImuBuffer(samples)
        d1 = preintegrate(samples, 0.5, 1.0)
        d2 = preintegrate(buffer, 0.5, 1.0)
        assert np.allclose(d1.delta_r, d2.delta_r)
        assert np.allclose(d1.delta_p, d2.delta_p)
        assert np.allclose(d1.delta_v, d2.delta_v)

    def test_propagation_includes_gravity(self):
        # Free fall: no IMU specific force, position drops by g/2 t^2.
        state = ImuState(np.eye(3), np.zeros(3), np.zeros(3), 0.0)
        from repro.imu.preintegration import ImuDelta

        delta = ImuDelta(0.0, 1.0)
        final = propagate(state, delta)
        assert np.allclose(final.position, [0, 0, -9.81 / 2], atol=1e-9)
        assert np.allclose(final.velocity, [0, 0, -9.81], atol=1e-9)

    def test_pose_conventions(self):
        state = ImuState(np.eye(3), np.array([1.0, 2.0, 3.0]), np.zeros(3), 0.0)
        assert np.allclose(state.pose_wb().apply(np.zeros(3)), [1, 2, 3])
        assert np.allclose(state.pose_bw().apply(np.array([1.0, 2.0, 3.0])), 0)


class TestClientMotionModel:
    def _model(self, traj, noise=False, fusion=None):
        samples = ImuBuffer(synthesize_imu(traj, rate_hz=200.0, with_noise=noise))
        v0 = traj.velocities()[1]
        state = ImuState(
            quaternion.to_matrix(traj[0].orientation), traj[0].position, v0, 0.0
        )
        return ClientMotionModel(state, fusion=fusion), samples

    def test_pure_imu_advance_follows_truth(self):
        traj = _circle_trajectory(duration=2.0)
        model, samples = self._model(traj)
        for i in range(1, 40):
            delta = preintegrate(samples, traj[i - 1].timestamp, traj[i].timestamp)
            model.advance(delta)
        err = np.linalg.norm(model.states[-1].position - traj[39].position)
        assert err < 0.02

    def test_server_pose_correction_repropagates(self):
        traj = _circle_trajectory(duration=3.0)
        model, samples = self._model(traj, noise=True)
        for i in range(1, 100):
            delta = preintegrate(samples, traj[i - 1].timestamp, traj[i].timestamp)
            model.advance(delta)
        drift_before = np.linalg.norm(model.states[-1].position - traj[99].position)
        # A perfect server pose for frame 95 arrives late.
        model.receive_slam_pose(95, traj[95].pose_bw())
        drift_after = np.linalg.norm(model.states[-1].position - traj[99].position)
        assert drift_after < drift_before
        assert drift_after < 0.05

    def test_fusion_weight_zero_keeps_imu(self):
        traj = _circle_trajectory(duration=1.0)
        model, samples = self._model(
            traj, fusion=FusionConfig(server_weight=0.0)
        )
        delta = preintegrate(samples, traj[0].timestamp, traj[10].timestamp)
        model.advance(delta)
        before = model.states[-1].position.copy()
        model.receive_slam_pose(1, SE3.identity())
        assert np.allclose(model.states[1].position, before, atol=1e-9)

    def test_fusion_weight_one_snaps_to_server(self):
        traj = _circle_trajectory(duration=1.0)
        model, samples = self._model(traj, fusion=FusionConfig(server_weight=1.0))
        delta = preintegrate(samples, traj[0].timestamp, traj[5].timestamp)
        model.advance(delta)
        target = traj[5].pose_bw()
        model.receive_slam_pose(1, target)
        assert np.allclose(
            model.states[1].position, target.inverse().translation, atol=1e-9
        )

    def test_invalid_frame_index(self):
        traj = _circle_trajectory(duration=1.0)
        model, _ = self._model(traj)
        with pytest.raises(IndexError):
            model.receive_slam_pose(5, SE3.identity())

    def test_invalid_fusion_weight(self):
        with pytest.raises(ValueError):
            FusionConfig(server_weight=1.5)

    def test_rtt_tolerance_table2_shape(self):
        """Increasing correction delay degrades accuracy only mildly
        (the Table 2 effect)."""
        traj = _circle_trajectory(duration=6.0, knot_rate=30.0)
        errors = {}
        for lag_frames in (1, 10, 30):
            model, samples = self._model(traj, noise=True)
            for i in range(1, len(traj)):
                delta = preintegrate(
                    samples, traj[i - 1].timestamp, traj[i].timestamp
                )
                model.advance(delta)
                ready = i - lag_frames
                if ready >= 1:
                    model.receive_slam_pose(ready, traj[ready].pose_bw())
            err = [
                np.linalg.norm(model.states[k].position - traj[k].position)
                for k in range(1, len(traj))
            ]
            errors[lag_frames] = float(np.mean(err))
        assert errors[1] <= errors[10] <= errors[30]
        # Even 1 s of lag stays centimeter-scale, not meters.
        assert errors[30] < 0.10
