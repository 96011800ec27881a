"""SO(3) rotation group: exponential/logarithm maps and utilities.

Rotations are represented as 3x3 orthonormal numpy matrices with
determinant +1.  The exponential map (`exp`) converts an axis-angle
vector (rotation vector) into a rotation matrix, and the logarithm map
(`log`) inverts it.  These are the workhorses of pose optimization:
bundle adjustment and PnP both parameterize rotation updates as small
axis-angle increments applied on the left.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-10


def hat(omega: np.ndarray) -> np.ndarray:
    """Return the skew-symmetric matrix of a 3-vector.

    ``hat(w) @ v == np.cross(w, v)`` for all 3-vectors ``v``.
    """
    wx, wy, wz = omega
    return np.array(
        [
            [0.0, -wz, wy],
            [wz, 0.0, -wx],
            [-wy, wx, 0.0],
        ]
    )


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`: extract the 3-vector from a skew matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def exp(omega: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: map an axis-angle vector to a rotation matrix."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega)
    if theta < _EPS:
        # First-order expansion keeps exp well-behaved near the identity.
        return np.eye(3) + hat(omega)
    axis = omega / theta
    k = hat(axis)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def log(rotation: np.ndarray) -> np.ndarray:
    """Map a rotation matrix to its axis-angle vector (inverse of exp)."""
    rotation = np.asarray(rotation, dtype=float)
    cos_theta = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta < _EPS:
        return vee(rotation - np.eye(3))
    if np.pi - theta < 1e-6:
        # Near pi the standard formula is singular; recover the axis from
        # the symmetric part R + I = 2*cos^2(theta/2)*I + ... instead.
        m = (rotation + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(m), 0.0))
        # Fix signs using the off-diagonal terms.
        if axis[0] > _EPS:
            axis[1] = np.copysign(axis[1], m[0, 1])
            axis[2] = np.copysign(axis[2], m[0, 2])
        elif axis[1] > _EPS:
            axis[2] = np.copysign(axis[2], m[1, 2])
        axis = axis / (np.linalg.norm(axis) + _EPS)
        return theta * axis
    return theta / (2.0 * np.sin(theta)) * vee(rotation - rotation.T)


def hat_batch(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices for a stack of 3-vectors: ``(n, 3) -> (n, 3, 3)``."""
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    out = np.zeros((len(omega), 3, 3))
    wx, wy, wz = omega[:, 0], omega[:, 1], omega[:, 2]
    out[:, 0, 1] = -wz
    out[:, 0, 2] = wy
    out[:, 1, 0] = wz
    out[:, 1, 2] = -wx
    out[:, 2, 0] = -wy
    out[:, 2, 1] = wx
    return out


def vee_batch(matrices: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat_batch`: ``(n, 3, 3) -> (n, 3)``."""
    m = np.asarray(matrices, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def exp_batch(omega: np.ndarray) -> np.ndarray:
    """Rodrigues' formula over a stack: ``(n, 3) -> (n, 3, 3)``.

    Row ``i`` equals ``exp(omega[i])`` (same branch structure as the
    scalar map, so the two agree to the last ulp away from branch
    boundaries).
    """
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    theta = np.linalg.norm(omega, axis=1)
    small = theta < _EPS
    safe = np.where(small, 1.0, theta)
    k = hat_batch(omega / safe[:, None])
    out = (
        np.eye(3)
        + np.sin(theta)[:, None, None] * k
        + (1.0 - np.cos(theta))[:, None, None] * (k @ k)
    )
    if small.any():
        out[small] = np.eye(3) + hat_batch(omega[small])
    return out


def log_batch(rotations: np.ndarray) -> np.ndarray:
    """Logarithm map over a stack: ``(n, 3, 3) -> (n, 3)``.

    Regular and small-angle rows are fully vectorized; the (rare)
    near-pi rows fall back to the scalar :func:`log`, whose symmetric-
    part axis recovery they need anyway.
    """
    rotations = np.asarray(rotations, dtype=float)
    if rotations.ndim == 2:
        rotations = rotations[None]
    n = len(rotations)
    trace = rotations[:, 0, 0] + rotations[:, 1, 1] + rotations[:, 2, 2]
    cos_theta = np.clip((trace - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    small = theta < _EPS
    near_pi = (np.pi - theta) < 1e-6
    out = np.zeros((n, 3))
    regular = ~small & ~near_pi
    if regular.any():
        asym = vee_batch(
            rotations[regular] - np.transpose(rotations[regular], (0, 2, 1))
        )
        scale = theta[regular] / (2.0 * np.sin(theta[regular]))
        out[regular] = scale[:, None] * asym
    if small.any():
        out[small] = vee_batch(rotations[small] - np.eye(3))
    if near_pi.any():
        out[near_pi] = np.stack([log(r) for r in rotations[near_pi]])
    return out


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly distributed random rotation matrix."""
    # Uniform quaternion on S^3 then convert; avoids axis-angle bias.
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
