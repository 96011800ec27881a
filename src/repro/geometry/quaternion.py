"""Unit quaternions for orientation representation.

Quaternions are stored as ``(w, x, y, z)`` numpy arrays with ``w`` the
scalar part.  Trajectories (`repro.geometry.trajectory`) keep their
orientations as quaternions and interpolate them with :func:`slerp`.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def identity() -> np.ndarray:
    """The identity quaternion (no rotation)."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def normalize(q: np.ndarray) -> np.ndarray:
    """Return the unit quaternion with the same direction as ``q``."""
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q)
    if norm < _EPS:
        raise ValueError("cannot normalize a zero quaternion")
    q = q / norm
    # Canonicalize sign so q and -q (the same rotation) compare equal.
    if q[0] < 0:
        q = -q
    return q


def multiply(q_a: np.ndarray, q_b: np.ndarray) -> np.ndarray:
    """Hamilton product ``q_a * q_b`` (apply q_b first, then q_a)."""
    w1, x1, y1, z1 = q_a
    w2, x2, y2, z2 = q_b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def conjugate(q: np.ndarray) -> np.ndarray:
    """Inverse rotation for a unit quaternion."""
    w, x, y, z = q
    return np.array([w, -x, -y, -z])


def to_axis_angle(q: np.ndarray) -> np.ndarray:
    """Convert a unit quaternion to its rotation vector."""
    q = normalize(q)
    w = np.clip(q[0], -1.0, 1.0)
    theta = 2.0 * np.arccos(w)
    s = np.sqrt(max(1.0 - w * w, 0.0))
    if s < _EPS:
        return q[1:] * 2.0
    return theta * q[1:] / s


def from_matrix(rotation: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix to a unit quaternion (Shepperd's method)."""
    m = np.asarray(rotation, dtype=float)
    trace = np.trace(m)
    if trace > 0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    return normalize(q)


def to_matrix(q: np.ndarray) -> np.ndarray:
    """Convert a unit quaternion to a rotation matrix."""
    w, x, y, z = normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def slerp(q_a: np.ndarray, q_b: np.ndarray, t: float) -> np.ndarray:
    """Spherical linear interpolation between two unit quaternions."""
    q_a = normalize(q_a)
    q_b = normalize(q_b)
    dot = float(np.dot(q_a, q_b))
    if dot < 0.0:
        q_b = -q_b
        dot = -dot
    if dot > 1.0 - 1e-9:
        return normalize(q_a + t * (q_b - q_a))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    sin_theta = np.sin(theta)
    return normalize(
        (np.sin((1.0 - t) * theta) / sin_theta) * q_a + (np.sin(t * theta) / sin_theta) * q_b
    )
