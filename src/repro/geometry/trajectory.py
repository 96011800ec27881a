"""Timestamped trajectories: containers, interpolation and resampling.

A :class:`Trajectory` is the ground-truth or estimated path of one
device, stored as parallel arrays of timestamps, positions and
orientations.  Dataset generators produce them, SLAM estimates them and
the ATE metrics compare them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import quaternion
from .se3 import SE3


@dataclass
class TrajectoryPoint:
    """One pose sample: time (s), world position and body orientation."""

    timestamp: float
    position: np.ndarray
    orientation: np.ndarray  # unit quaternion (w, x, y, z), body->world

    def pose_wb(self) -> SE3:
        """Body->world transform at this sample."""
        return SE3(quaternion.to_matrix(self.orientation), self.position)

    def pose_bw(self) -> SE3:
        """World->body transform (camera-pose convention)."""
        return self.pose_wb().inverse()


class Trajectory:
    """An ordered sequence of timestamped poses with vector access."""

    def __init__(self, points: Optional[Iterable[TrajectoryPoint]] = None) -> None:
        self._points: List[TrajectoryPoint] = list(points or [])
        # The timestamps again, as a list :meth:`sample` can bisect
        # without building an array per call.
        self._times: List[float] = [p.timestamp for p in self._points]
        if any(b <= a for a, b in zip(self._times, self._times[1:])):
            raise ValueError("trajectory timestamps must be strictly increasing")

    @staticmethod
    def from_arrays(
        timestamps: Sequence[float],
        positions: np.ndarray,
        orientations: Optional[np.ndarray] = None,
    ) -> "Trajectory":
        """Build from arrays; orientations default to identity."""
        positions = np.asarray(positions, dtype=float)
        n = len(timestamps)
        if positions.shape != (n, 3):
            raise ValueError(f"positions must be ({n}, 3), got {positions.shape}")
        if orientations is None:
            orientations = np.tile(quaternion.identity(), (n, 1))
        else:
            orientations = np.asarray(orientations, dtype=float)
            if orientations.shape != (n, 4):
                raise ValueError(f"orientations must be ({n}, 4), got {orientations.shape}")
        return Trajectory(
            TrajectoryPoint(float(t), positions[i].copy(), orientations[i].copy())
            for i, t in enumerate(timestamps)
        )

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        return self._points[index]

    @property
    def timestamps(self) -> np.ndarray:
        return np.array(self._times)

    @property
    def positions(self) -> np.ndarray:
        if not self._points:
            return np.zeros((0, 3))
        return np.stack([p.position for p in self._points])

    @property
    def orientations(self) -> np.ndarray:
        if not self._points:
            return np.zeros((0, 4))
        return np.stack([p.orientation for p in self._points])

    def sample(self, timestamp: float) -> TrajectoryPoint:
        """Interpolate the pose at an arbitrary time inside the range."""
        times = self._times
        if not times:
            raise ValueError("cannot sample an empty trajectory")
        if timestamp <= times[0]:
            return self._points[0]
        if timestamp >= times[-1]:
            return self._points[-1]
        hi = bisect.bisect_left(times, timestamp)  # np.searchsorted's "left"
        lo = hi - 1
        span = times[hi] - times[lo]
        alpha = float((timestamp - times[lo]) / span)
        a, b = self._points[lo], self._points[hi]
        return TrajectoryPoint(
            timestamp,
            (1.0 - alpha) * a.position + alpha * b.position,
            quaternion.slerp(a.orientation, b.orientation, alpha),
        )

    def orientations_at(self, timestamps: np.ndarray) -> np.ndarray:
        """:meth:`sample`'s orientation at each of ``timestamps``, as one
        ``(n, 4)`` stack (the same bytes row for row)."""
        if not self._points:
            raise ValueError("cannot sample an empty trajectory")
        timestamps = np.asarray(timestamps, dtype=float)
        knots = np.array(self._times)
        orientations = self.orientations
        hi = np.searchsorted(knots, timestamps)  # bisect_left
        out = np.where((hi == 0)[:, None], orientations[0], orientations[-1])
        inside = (timestamps > knots[0]) & (timestamps < knots[-1])
        hi = hi[inside]
        lo = hi - 1
        alpha = (timestamps[inside] - knots[lo]) / (knots[hi] - knots[lo])
        out[inside] = quaternion.slerp_rows(orientations[lo], orientations[hi], alpha)
        return out

    def resample(self, timestamps: Sequence[float]) -> "Trajectory":
        """Return a new trajectory interpolated at the given times."""
        samples = []
        last = None
        for t in timestamps:
            point = self.sample(float(t))
            if last is not None and point.timestamp <= last:
                continue
            samples.append(point)
            last = point.timestamp
        return Trajectory(samples)

    def slice_time(self, start: float, end: float) -> "Trajectory":
        """Sub-trajectory with timestamps in ``[start, end]``."""
        return Trajectory(p for p in self._points if start <= p.timestamp <= end)

    def velocities(self) -> np.ndarray:
        """Finite-difference linear velocities, shape ``(n, 3)``."""
        pos = self.positions
        times = self.timestamps
        if len(pos) < 2:
            return np.zeros_like(pos)
        vel = np.zeros_like(pos)
        dt = np.diff(times)[:, None]
        vel[1:] = np.diff(pos, axis=0) / dt
        vel[0] = vel[1] if len(pos) > 1 else 0.0
        return vel
