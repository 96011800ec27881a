"""Shared fixtures for the paper-reproduction benchmarks.

Sessions are expensive (pure-Python SLAM), so multi-client runs are
built once per pytest session and shared by every bench that reads
them.  All runs use shortened traces at 10 FPS — the geometry, overlap
structure and network behaviour of the paper's scenarios are preserved;
EXPERIMENTS.md records the scaling.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BaselineConfig,
    BaselineSession,
    ClientScenario,
    SlamShareConfig,
    SlamShareSession,
)
from repro.datasets import euroc_dataset, kitti_dataset

RATE = 10.0
BENCH_SEED = 7


def euroc_scenarios(duration_a=18.0, duration_b=14.0, duration_c=10.0,
                    three_clients=False):
    """The Fig. 10a scenario: A starts, B joins, (C joins later)."""
    scenarios = [
        ClientScenario(0, euroc_dataset("MH04", duration=duration_a, rate=RATE)),
        ClientScenario(
            1,
            euroc_dataset("MH05", duration=duration_b, rate=RATE),
            start_time=4.0,
            oracle_seed=9,
            imu_seed=13,
        ),
    ]
    if three_clients:
        scenarios.append(
            ClientScenario(
                2,
                euroc_dataset("MH04", duration=duration_c, rate=RATE),
                start_time=9.0,
                oracle_seed=21,
                imu_seed=23,
            )
        )
    return scenarios


def kitti_scenarios(duration=14.0):
    """Fig. 10c: KITTI-05 split three ways around one circuit."""
    return [
        ClientScenario(
            0, kitti_dataset("KITTI-05", duration=duration, rate=RATE,
                             start_arclength=0.0),
        ),
        ClientScenario(
            1,
            kitti_dataset("KITTI-05", duration=duration, rate=RATE,
                          start_arclength=60.0),
            start_time=4.0, oracle_seed=9, imu_seed=13,
        ),
        ClientScenario(
            2,
            kitti_dataset("KITTI-05", duration=duration, rate=RATE,
                          start_arclength=120.0),
            start_time=8.0, oracle_seed=21, imu_seed=23,
        ),
    ]


def share_config(**kwargs) -> SlamShareConfig:
    defaults = dict(camera_fps=RATE, render_video_frames=False)
    defaults.update(kwargs)
    return SlamShareConfig(**defaults)


@pytest.fixture(scope="session")
def euroc_session_result():
    session = SlamShareSession(
        euroc_scenarios(three_clients=True), share_config(),
        ate_sample_interval=0.5,
    )
    return session.run()


@pytest.fixture(scope="session")
def kitti_session_result():
    session = SlamShareSession(
        kitti_scenarios(), share_config(), ate_sample_interval=0.5
    )
    return session.run()


@pytest.fixture(scope="session")
def baseline_session_result():
    session = BaselineSession(
        euroc_scenarios(),
        share_config(),
        BaselineConfig(hold_down_frames=50),
    )
    return session.run()
