"""Ablation A5: IMU pose priors vs constant-velocity tracking.

Paper §4.2.2 argues the client's IMU makes tracking resilient; our
reproduction found the effect is even more fundamental.  With a pure
constant-velocity motion model, visual pose jitter feeds back through
the prior into the *data association* (features are matched around the
predicted projections), and the bias compounds — at low frame rates the
tracker diverges within a few seconds.  Gyro-driven prediction is
exogenous to the visual estimate and breaks the loop.

This bench runs the same single-user trace with both priors and
reports lost frames and ATE.
"""

import numpy as np

from repro.datasets import euroc_dataset
from repro.imu import GRAVITY_W, ImuBuffer, preintegrate, synthesize_imu
from repro.metrics import absolute_trajectory_error
from repro.slam import SlamConfig, SlamSystem


def _run(with_imu: bool, duration=20.0, rate=10.0):
    ds = euroc_dataset("MH04", duration=duration, rate=rate)
    system = SlamSystem(
        ds.camera,
        SlamConfig(relocalize_on_loss=False),
        gravity=ds.pose_cw(0).rotation @ GRAVITY_W,
    )
    oracle = ds.make_oracle()
    imu = ImuBuffer(synthesize_imu(ds.ground_truth, rate_hz=200.0))
    prev = None
    lost = 0
    for ts, obs in ds.frames(oracle):
        delta = None
        if with_imu and prev is not None:
            delta = preintegrate(imu, prev, ts)
        result = system.process_frame(ts, obs, imu_delta=delta)
        if not result.tracking.success:
            lost += 1
        prev = ts
    ate = absolute_trajectory_error(
        system.estimated_trajectory(), ds.ground_truth
    )
    return lost, ate.rmse, ds.n_frames


def test_ablation_imu_prior_vs_constant_velocity(benchmark):
    (imu_lost, imu_ate, n), (cv_lost, cv_ate, _) = benchmark.pedantic(
        lambda: (_run(True), _run(False)), rounds=1, iterations=1
    )
    print("\nAblation A5 — tracking prior source (MH04-like, 10 FPS, 20 s)")
    print(f"  IMU prior        : {imu_lost}/{n} frames lost, "
          f"ATE {imu_ate * 100:.2f} cm")
    cv_ate_txt = f"{cv_ate * 100:.1f} cm" if np.isfinite(cv_ate) else "n/a"
    print(f"  constant velocity: {cv_lost}/{n} frames lost, ATE {cv_ate_txt}")

    # The IMU prior keeps tracking alive; the constant-velocity model
    # loses a large fraction of frames at this frame rate.
    assert imu_lost <= 2
    assert imu_ate < 0.05
    assert cv_lost > imu_lost
