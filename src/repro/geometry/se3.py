"""SE(3) rigid-body transforms.

An :class:`SE3` stores a rotation matrix and a translation vector and is
used throughout the SLAM stack for camera poses.  Following ORB-SLAM
conventions a *camera pose* ``Tcw`` maps world coordinates to camera
coordinates; the camera center in the world frame is then
``-Tcw.rotation.T @ Tcw.translation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import so3

_EPS = 1e-10


@dataclass(frozen=True)
class SE3:
    """A rigid transform ``x -> rotation @ x + translation``."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(
            self, "translation", np.asarray(self.translation, dtype=float).reshape(3)
        )

    @staticmethod
    def identity() -> "SE3":
        return SE3()

    @staticmethod
    def exp(xi: np.ndarray) -> "SE3":
        """Exponential map from a 6-vector ``(rho, omega)``.

        ``rho`` is the translational part and ``omega`` the rotational
        (axis-angle) part, matching the common (translation, rotation)
        twist ordering used by our Gauss-Newton solvers.
        """
        xi = np.asarray(xi, dtype=float)
        rho, omega = xi[:3], xi[3:]
        theta = np.linalg.norm(omega)
        rotation = so3.exp(omega)
        if theta < _EPS:
            v = np.eye(3) + 0.5 * so3.hat(omega)
        else:
            k = so3.hat(omega / theta)
            v = (
                np.eye(3)
                + ((1.0 - np.cos(theta)) / theta) * k
                + ((theta - np.sin(theta)) / theta) * (k @ k)
            )
        return SE3(rotation, v @ rho)

    def log(self) -> np.ndarray:
        """Logarithm map to a 6-vector ``(rho, omega)``."""
        omega = so3.log(self.rotation)
        theta = np.linalg.norm(omega)
        if theta < _EPS:
            v_inv = np.eye(3) - 0.5 * so3.hat(omega)
        else:
            k = so3.hat(omega / theta)
            half = theta / 2.0
            cot_half = 1.0 / np.tan(half)
            v_inv = np.eye(3) - half * k + (1.0 - half * cot_half) * (k @ k)
        return np.concatenate([v_inv @ self.translation, omega])

    def inverse(self) -> "SE3":
        r_inv = self.rotation.T
        return SE3(r_inv, -r_inv @ self.translation)

    def compose(self, other: "SE3") -> "SE3":
        """Return ``self * other`` (apply ``other`` first)."""
        return SE3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __mul__(self, other: "SE3") -> "SE3":
        return self.compose(other)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point ``(3,)`` or many points ``(n, 3)``."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        return points @ self.rotation.T + self.translation

    def camera_center(self) -> np.ndarray:
        """World-frame origin of a camera whose world->camera pose is ``self``."""
        return -self.rotation.T @ self.translation

    def perturb(self, xi: np.ndarray) -> "SE3":
        """Left-multiply by a small twist: ``exp(xi) * self``."""
        return SE3.exp(xi) * self

    def distance(self, other: "SE3") -> tuple:
        """Return ``(rotation_angle_rad, translation_norm)`` to ``other``."""
        delta = self.inverse() * other
        return (float(np.linalg.norm(so3.log(delta.rotation))),
                float(np.linalg.norm(delta.translation)))

    def almost_equal(self, other: "SE3", rot_tol: float = 1e-6, trans_tol: float = 1e-6) -> bool:
        rot_err, trans_err = self.distance(other)
        return rot_err <= rot_tol and trans_err <= trans_tol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t = np.array2string(self.translation, precision=3, suppress_small=True)
        return f"SE3(t={t})"


def random_se3(rng: np.random.Generator, trans_scale: float = 1.0) -> SE3:
    """Draw a random rigid transform (uniform rotation, Gaussian translation)."""
    return SE3(so3.random_rotation(rng), rng.normal(scale=trans_scale, size=3))
