"""IMU measurement model and synthesis from ground-truth trajectories.

An accelerometer measures specific force in the body frame,
``f = R_wb^T (a_w - g_w)`` with ``g_w = (0, 0, -9.81)``; a gyroscope
measures body angular rate.  Both carry white noise plus slowly-walking
bias, the standard MEMS error model.  Real datasets (EuRoC) ship raw
IMU streams; we synthesize equivalent streams by differentiating the
ground-truth trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..geometry import Trajectory, quaternion

GRAVITY_W = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class ImuNoiseModel:
    """Continuous-time noise densities (EuRoC-class MEMS defaults)."""

    gyro_noise_density: float = 1.7e-4    # rad/s/sqrt(Hz)
    accel_noise_density: float = 2.0e-3   # m/s^2/sqrt(Hz)
    gyro_bias_walk: float = 2.0e-5        # rad/s^2/sqrt(Hz)
    accel_bias_walk: float = 3.0e-3       # m/s^3/sqrt(Hz)

    def gyro_sigma(self, rate_hz: float) -> float:
        """Discrete per-sample gyro noise std-dev at a sampling rate."""
        return self.gyro_noise_density * np.sqrt(rate_hz)

    def accel_sigma(self, rate_hz: float) -> float:
        return self.accel_noise_density * np.sqrt(rate_hz)


@dataclass
class ImuSample:
    """One IMU reading: timestamp, body angular rate, specific force."""

    timestamp: float
    gyro: np.ndarray
    accel: np.ndarray


def _angular_velocity_body(q0: np.ndarray, q1: np.ndarray, dt: float) -> np.ndarray:
    """Mean body-frame angular rate rotating q0 into q1 over dt."""
    dq = quaternion.multiply(quaternion.conjugate(q0), q1)
    return quaternion.to_axis_angle(dq) / max(dt, 1e-9)


def synthesize_imu(
    trajectory: Trajectory,
    rate_hz: float = 200.0,
    noise: ImuNoiseModel = ImuNoiseModel(),
    seed: int = 11,
    with_noise: bool = True,
) -> List[ImuSample]:
    """Generate an IMU stream consistent with a ground-truth trajectory.

    Positions are twice-differentiated for world acceleration and
    orientations once-differentiated for body rates; bias random walks
    and white noise are then layered on per the noise model.
    """
    if len(trajectory) < 3:
        raise ValueError("need at least 3 trajectory samples for IMU synthesis")
    rng = np.random.default_rng(seed)
    knot_times = trajectory.timestamps
    positions = trajectory.positions
    orientations = trajectory.orientations
    t0, t1 = float(knot_times[0]), float(knot_times[-1])
    dt = 1.0 / rate_hz

    # Knot-based derivatives: velocities at segment midpoints, then
    # accelerations and angular rates at interior knots.  Sampling the
    # *interpolated* trajectory instead would differentiate a piecewise
    # linear function — zero acceleration inside segments and spikes at
    # knots, which integrates to roughly twice the true motion.
    seg_dt = np.diff(knot_times)
    mid_times = (knot_times[:-1] + knot_times[1:]) / 2.0
    mid_vel = np.diff(positions, axis=0) / seg_dt[:, None]
    acc_times = knot_times[1:-1]
    acc = (mid_vel[1:] - mid_vel[:-1]) / (mid_times[1:] - mid_times[:-1])[:, None]

    omega_mid = np.stack(
        [
            _angular_velocity_body(orientations[k], orientations[k + 1], seg_dt[k])
            for k in range(len(seg_dt))
        ]
    )

    def interp_rows(query: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
        return np.column_stack(
            [np.interp(query, xp, fp[:, axis]) for axis in range(3)]
        )

    times = np.arange(t0, t1 - dt, dt)
    a_w_samples = interp_rows(times, acc_times, acc) if len(acc) else np.zeros(
        (len(times), 3)
    )
    omega_samples = interp_rows(times, mid_times, omega_mid)

    # Rotate each sample's world acceleration into the body: one stacked
    # ``(n, 3, 3) @ (n, 3, 1)`` product, each row the matrix-vector
    # product of the one-sample rotation.
    time_list = times.tolist()
    r_wb = quaternion.to_matrix_rows(trajectory.orientations_at(times))
    specific_force = (
        r_wb.transpose(0, 2, 1) @ (a_w_samples - GRAVITY_W)[:, :, None]
    )[:, :, 0]
    omega = omega_samples
    if with_noise:
        # One standard-normal block in the per-sample order of the draws:
        # gyro walk, accel walk, gyro white noise, accel white noise.
        # ``normal(scale=s)`` is ``0 + s * z``; a bias walk is a running sum.
        sqrt_dt = np.sqrt(dt)
        scale = np.repeat(
            [
                noise.gyro_bias_walk * sqrt_dt,
                noise.accel_bias_walk * sqrt_dt,
                noise.gyro_sigma(rate_hz),
                noise.accel_sigma(rate_hz),
            ],
            3,
        )
        draws = 0.0 + scale * rng.standard_normal((len(times), 12))
        gyro_bias = np.cumsum(draws[:, 0:3], axis=0)
        accel_bias = np.cumsum(draws[:, 3:6], axis=0)
        omega = omega + gyro_bias + draws[:, 6:9]
        specific_force = specific_force + accel_bias + draws[:, 9:12]
    return [
        ImuSample(t, w, f) for t, w, f in zip(time_list, omega, specific_force)
    ]
