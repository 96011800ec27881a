"""IMU preintegration: compress raw samples into inter-frame deltas.

Standard preintegration (Forster et al.) accumulates, in the body frame
of the interval start,

* ``delta_r`` — rotation over the interval,
* ``delta_v`` — velocity change (gravity-free),
* ``delta_p`` — position change (gravity-free),

so the state at the end of the interval is recovered with the start
state and gravity:

    R1 = R0 @ delta_r
    v1 = v0 + g dt + R0 @ delta_v
    p1 = p0 + v0 dt + 0.5 g dt^2 + R0 @ delta_p

This is the ``C_IMU`` (RotΔ/VelΔ/PosΔ) input of the paper's Alg. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..geometry import SE3, so3
from .model import GRAVITY_W, ImuSample


@dataclass
class ImuDelta:
    """Preintegrated motion over ``[t_start, t_end)``."""

    t_start: float
    t_end: float
    delta_r: np.ndarray = field(default_factory=lambda: np.eye(3))
    delta_v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    delta_p: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @property
    def dt(self) -> float:
        return self.t_end - self.t_start


def preintegrate(samples, t_start: float, t_end: float) -> ImuDelta:
    """Integrate the samples that fall inside ``[t_start, t_end)``.

    ``samples`` may be a plain list of :class:`ImuSample` or an
    :class:`ImuBuffer` (bisected slicing; preferred in per-frame loops).
    """
    delta = ImuDelta(t_start, t_end)
    r = np.eye(3)
    v = np.zeros(3)
    p = np.zeros(3)
    prev_t = t_start
    if isinstance(samples, ImuBuffer):
        inside = samples.between(t_start, t_end)
    else:
        inside = [s for s in samples if t_start <= s.timestamp < t_end]
    for k, sample in enumerate(inside):
        next_t = inside[k + 1].timestamp if k + 1 < len(inside) else t_end
        dt = next_t - max(sample.timestamp, prev_t)
        if dt <= 0:
            continue
        accel_body = r @ sample.accel
        p = p + v * dt + 0.5 * accel_body * dt * dt
        v = v + accel_body * dt
        r = r @ so3.exp(sample.gyro * dt)
        prev_t = next_t
    delta.delta_r = r
    delta.delta_v = v
    delta.delta_p = p
    return delta


class ImuBuffer:
    """Time-indexed IMU sample store with O(log n) range queries."""

    def __init__(self, samples: List[ImuSample]) -> None:
        self._samples = sorted(samples, key=lambda s: s.timestamp)
        self._times = np.array([s.timestamp for s in self._samples])

    def between(self, t_start: float, t_end: float) -> List[ImuSample]:
        lo = int(np.searchsorted(self._times, t_start, side="left"))
        hi = int(np.searchsorted(self._times, t_end, side="left"))
        return self._samples[lo:hi]


@dataclass
class ImuState:
    """World-frame navigation state (body->world rotation convention)."""

    rotation_wb: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    timestamp: float

    def pose_wb(self) -> SE3:
        return SE3(self.rotation_wb, self.position)

    def pose_bw(self) -> SE3:
        """World->body (camera-pose convention)."""
        return self.pose_wb().inverse()


def propagate(state: ImuState, delta: ImuDelta,
              gravity: np.ndarray = GRAVITY_W) -> ImuState:
    """Advance a navigation state by a preintegrated delta."""
    dt = delta.dt
    rotation = state.rotation_wb @ delta.delta_r
    velocity = state.velocity + gravity * dt + state.rotation_wb @ delta.delta_v
    position = (
        state.position
        + state.velocity * dt
        + 0.5 * gravity * dt * dt
        + state.rotation_wb @ delta.delta_p
    )
    return ImuState(rotation, position, velocity, delta.t_end)
