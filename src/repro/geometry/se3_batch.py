"""Batched SE(3) kernels over packed ``(n, 3, 3)`` / ``(n, 3)`` stacks.

The mapping back-end (bundle adjustment, pose-graph relaxation) touches
hundreds of poses per call; doing that one :class:`~repro.geometry.SE3`
object at a time leaves >95 % of the time in Python dispatch.  These
functions operate on rotation/translation stacks instead, mirroring the
scalar methods branch-for-branch so row ``i`` of every output equals
the corresponding scalar computation (the equivalence suite in
``tests/test_backend_vectorized.py`` pins this).

A pose stack is simply a pair ``(rotations, translations)`` of shapes
``(n, 3, 3)`` and ``(n, 3)`` — no wrapper class, so slices, gathers and
segment reductions stay plain numpy.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from . import so3
from .se3 import SE3

_EPS = 1e-10

PoseStack = Tuple[np.ndarray, np.ndarray]


def pack(poses: Iterable[SE3]) -> PoseStack:
    """Stack SE3 objects into ``(n, 3, 3)`` rotations and ``(n, 3)`` translations."""
    poses = list(poses)
    if not poses:
        return np.zeros((0, 3, 3)), np.zeros((0, 3))
    rotations = np.stack([p.rotation for p in poses]).astype(float)
    translations = np.stack([p.translation for p in poses]).astype(float)
    return rotations, translations


def unpack(rotations: np.ndarray, translations: np.ndarray) -> List[SE3]:
    """Inverse of :func:`pack`."""
    return [SE3(r, t) for r, t in zip(rotations, translations)]


def compose(
    r_a: np.ndarray, t_a: np.ndarray, r_b: np.ndarray, t_b: np.ndarray
) -> PoseStack:
    """Row-wise ``T_a * T_b`` (apply ``T_b`` first), like :meth:`SE3.compose`."""
    return r_a @ r_b, (r_a @ t_b[..., None])[..., 0] + t_a


def inverse(rotations: np.ndarray, translations: np.ndarray) -> PoseStack:
    """Row-wise pose inverse."""
    r_inv = np.transpose(rotations, (0, 2, 1))
    return r_inv, -(r_inv @ translations[..., None])[..., 0]


def apply(
    rotations: np.ndarray, translations: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Transform point ``i`` by pose ``i``: ``(n,3,3),(n,3),(n,3) -> (n,3)``."""
    return (rotations @ points[..., None])[..., 0] + translations


def exp(xi: np.ndarray) -> PoseStack:
    """Batched :meth:`SE3.exp` over ``(n, 6)`` twists ``(rho, omega)``."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    rho, omega = xi[:, :3], xi[:, 3:]
    theta = np.linalg.norm(omega, axis=1)
    rotations = so3.exp_batch(omega)
    small = theta < _EPS
    safe = np.where(small, 1.0, theta)
    k = so3.hat_batch(omega / safe[:, None])
    v = (
        np.eye(3)
        + ((1.0 - np.cos(theta)) / safe)[:, None, None] * k
        + ((theta - np.sin(theta)) / safe)[:, None, None] * (k @ k)
    )
    if small.any():
        v[small] = np.eye(3) + 0.5 * so3.hat_batch(omega[small])
    return rotations, (v @ rho[..., None])[..., 0]


def log(rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Batched :meth:`SE3.log`: pose stack ``->`` ``(n, 6)`` twists."""
    omega = so3.log_batch(rotations)
    theta = np.linalg.norm(omega, axis=1)
    small = theta < _EPS
    safe = np.where(small, 1.0, theta)
    k = so3.hat_batch(omega / safe[:, None])
    half = safe / 2.0
    cot_half = 1.0 / np.tan(half)
    v_inv = (
        np.eye(3)
        - np.where(small, 0.0, half)[:, None, None] * k
        + np.where(small, 0.0, 1.0 - half * cot_half)[:, None, None] * (k @ k)
    )
    if small.any():
        v_inv[small] = np.eye(3) - 0.5 * so3.hat_batch(omega[small])
    translations = np.atleast_2d(np.asarray(translations, dtype=float))
    rho = (v_inv @ translations[..., None])[..., 0]
    return np.concatenate([rho, omega], axis=1)
