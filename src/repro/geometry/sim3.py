"""Sim(3) similarity transforms: rotation, translation and scale.

Map merging between monocular clients must solve for a relative *scale*
in addition to the rigid alignment, because monocular SLAM maps are
only defined up to scale.  ORB-SLAM3 (and hence SLAM-Share's Alg. 2)
aligns maps with a Sim(3) estimated from matched map points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .se3 import SE3


@dataclass(frozen=True)
class Sim3:
    """A similarity transform ``x -> scale * rotation @ x + translation``."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(
            self, "translation", np.asarray(self.translation, dtype=float).reshape(3)
        )
        if self.scale <= 0:
            raise ValueError(f"Sim3 scale must be positive, got {self.scale}")

    @staticmethod
    def identity() -> "Sim3":
        return Sim3()

    @staticmethod
    def from_se3(pose: SE3, scale: float = 1.0) -> "Sim3":
        return Sim3(pose.rotation, pose.translation, scale)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point ``(3,)`` or many points ``(n, 3)``."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            return self.scale * (self.rotation @ points) + self.translation
        return self.scale * (points @ self.rotation.T) + self.translation

    def transform_pose(self, pose_cw: SE3) -> SE3:
        """Re-express a world->camera pose after mapping the world by ``self``.

        When world points move as ``x' = s R x + t``, the pose that keeps
        the same projections (scale folds into depth, which projection
        ignores) is ``R_new = R_cw R^T`` and
        ``t_new = -R_cw R^T t + s t_cw``.  Under this update the camera
        center transforms exactly like a world point:
        ``c_new = self.apply(c_old)``.
        """
        new_rot = pose_cw.rotation @ self.rotation.T
        new_trans = -new_rot @ self.translation + self.scale * pose_cw.translation
        return SE3(new_rot, new_trans)

    def almost_equal(self, other: "Sim3", tol: float = 1e-6) -> bool:
        return (
            np.allclose(self.rotation, other.rotation, atol=tol)
            and np.allclose(self.translation, other.translation, atol=tol)
            and abs(self.scale - other.scale) <= tol
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sim3(s={self.scale:.4f}, t={np.round(self.translation, 3)})"
