"""Pinhole camera models (monocular and stereo).

The camera follows the usual computer-vision convention: the optical
axis is +z in the camera frame, +x points right and +y points down.
A world point ``x_w`` is imaged by first applying the world->camera pose
``Tcw`` and then projecting with the intrinsics ``(fx, fy, cx, cy)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..geometry import SE3


@dataclass(frozen=True)
class PinholeCamera:
    """Intrinsics plus image size for a distortion-free pinhole camera."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

    @staticmethod
    def ideal(width: int = 320, height: int = 240, fov_deg: float = 75.0) -> "PinholeCamera":
        """Convenience constructor from a horizontal field of view."""
        fx = width / (2.0 * np.tan(np.deg2rad(fov_deg) / 2.0))
        return PinholeCamera(fx=fx, fy=fx, cx=width / 2.0, cy=height / 2.0,
                             width=width, height=height)

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 intrinsic matrix K."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def project(self, points_cam: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Project camera-frame points to pixels.

        Returns ``(uv, valid)`` where ``uv`` has shape ``(n, 2)`` and
        ``valid`` marks points in front of the camera and inside the image.
        """
        points_cam = np.atleast_2d(np.asarray(points_cam, dtype=float))
        z = points_cam[:, 2]
        safe_z = np.where(np.abs(z) < 1e-12, 1e-12, z)
        u = self.fx * points_cam[:, 0] / safe_z + self.cx
        v = self.fy * points_cam[:, 1] / safe_z + self.cy
        uv = np.column_stack([u, v])
        valid = (
            (z > 1e-6)
            & (u >= 0.0)
            & (u < self.width)
            & (v >= 0.0)
            & (v < self.height)
        )
        return uv, valid

    def project_world(
        self, points_world: np.ndarray, pose_cw: SE3
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project world points through a world->camera pose.

        Returns ``(uv, depth, valid)``.
        """
        pts_cam = pose_cw.apply(np.atleast_2d(points_world))
        uv, valid = self.project(pts_cam)
        return uv, pts_cam[:, 2], valid

    def unproject(self, uv: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """Back-project pixels with depths into camera-frame 3D points."""
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        depth = np.atleast_1d(np.asarray(depth, dtype=float))
        x = (uv[:, 0] - self.cx) / self.fx * depth
        y = (uv[:, 1] - self.cy) / self.fy * depth
        return np.column_stack([x, y, depth])

    def bearing(self, uv: np.ndarray) -> np.ndarray:
        """Unit bearing vectors in the camera frame for pixels ``uv``."""
        rays = self.unproject(uv, np.ones(np.atleast_2d(uv).shape[0]))
        return rays / np.linalg.norm(rays, axis=1, keepdims=True)

    def in_image(self, uv: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean mask of pixels inside the image with an optional margin."""
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        return (
            (uv[:, 0] >= margin)
            & (uv[:, 0] < self.width - margin)
            & (uv[:, 1] >= margin)
            & (uv[:, 1] < self.height - margin)
        )


@dataclass(frozen=True)
class StereoRig:
    """A rectified stereo pair: left camera plus horizontal baseline (m).

    Following ORB-SLAM conventions, a point at ``depth`` appears
    ``disparity = fx * baseline / depth`` pixels further left in the
    right image than in the left one.
    """

    camera: PinholeCamera
    baseline: float

    def __post_init__(self) -> None:
        if self.baseline <= 0:
            raise ValueError("stereo baseline must be positive")

    @property
    def bf(self) -> float:
        """The ``fx * baseline`` product used for disparity/depth conversion."""
        return self.camera.fx * self.baseline

    def disparity(self, depth: np.ndarray) -> np.ndarray:
        depth = np.asarray(depth, dtype=float)
        return self.bf / np.maximum(depth, 1e-12)

    def depth_from_disparity(self, disparity: np.ndarray) -> np.ndarray:
        disparity = np.asarray(disparity, dtype=float)
        return self.bf / np.maximum(disparity, 1e-12)
