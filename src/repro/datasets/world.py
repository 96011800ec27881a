"""Synthetic 3-D worlds: landmark fields standing in for real scenes.

Two world shapes match the paper's datasets:

* :func:`drone_room_world` — a large indoor hall (EuRoC machine hall):
  landmarks on the walls, floor and ceiling plus interior clutter.
* :func:`street_world` — a rectangular street circuit (KITTI): landmark
  strips along building facades on both sides of each street.

A :class:`World` is just positions + stable integer ids; ids seed the
deterministic appearance (descriptors/patches) in :mod:`repro.vision`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class World:
    """A static landmark field."""

    positions: np.ndarray   # (n, 3) world coordinates, z up
    ids: np.ndarray         # (n,) stable landmark ids

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.positions.shape != (len(self.ids), 3):
            raise ValueError("positions and ids must agree in length")
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("landmark ids must be unique")


def drone_room_world(
    seed: int = 42,
    size: Tuple[float, float, float] = (20.0, 15.0, 8.0),
    n_landmarks: int = 1600,
) -> World:
    """An indoor hall with textured walls, floor, ceiling and clutter.

    The room is centered at the origin: x in [-sx/2, sx/2], etc., z up
    from 0 (floor) to sz (ceiling).
    """
    rng = np.random.default_rng(seed)
    sx, sy, sz = size
    per_surface = n_landmarks // 8
    points: List[np.ndarray] = []

    def wall(n, fixed_axis, fixed_value):
        pts = np.empty((n, 3))
        free = [a for a in range(3) if a != fixed_axis]
        spans = {0: (-sx / 2, sx / 2), 1: (-sy / 2, sy / 2), 2: (0.0, sz)}
        for axis in free:
            lo, hi = spans[axis]
            pts[:, axis] = rng.uniform(lo, hi, n)
        pts[:, fixed_axis] = fixed_value
        return pts

    points.append(wall(per_surface, 0, -sx / 2))   # west wall
    points.append(wall(per_surface, 0, sx / 2))    # east wall
    points.append(wall(per_surface, 1, -sy / 2))   # south wall
    points.append(wall(per_surface, 1, sy / 2))    # north wall
    points.append(wall(per_surface, 2, 0.0))       # floor
    points.append(wall(per_surface, 2, sz))        # ceiling
    # Interior clutter: scaffolding / machinery stand-ins.
    n_clutter = n_landmarks - 6 * per_surface
    clutter = np.column_stack(
        [
            rng.uniform(-sx / 2 * 0.8, sx / 2 * 0.8, n_clutter),
            rng.uniform(-sy / 2 * 0.8, sy / 2 * 0.8, n_clutter),
            rng.uniform(0.3, sz * 0.8, n_clutter),
        ]
    )
    points.append(clutter)
    positions = np.vstack(points)
    return World(positions, np.arange(len(positions)))


def street_world(
    seed: int = 43,
    circuit: Tuple[float, float] = (240.0, 160.0),
    street_half_width: float = 9.0,
    building_height: float = 10.0,
    landmarks_per_meter: float = 1.2,
) -> World:
    """A rectangular street circuit with building facades on both sides.

    The drivable centerline is the rectangle ``[0, cx] x [0, cy]``
    (clockwise); facades run parallel at ``+-street_half_width``.
    """
    rng = np.random.default_rng(seed)
    cx, cy = circuit
    corners = np.array([[0.0, 0.0], [cx, 0.0], [cx, cy], [0.0, cy]])
    points: List[np.ndarray] = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        seg = b - a
        length = float(np.linalg.norm(seg))
        direction = seg / length
        normal = np.array([-direction[1], direction[0]])
        n_pts = int(length * landmarks_per_meter)
        for side in (-1.0, 1.0):
            along = rng.uniform(0.0, length, n_pts)
            jitter = rng.uniform(-1.0, 1.0, n_pts)
            xy = (
                a[None, :]
                + along[:, None] * direction[None, :]
                + (side * street_half_width + jitter)[:, None] * normal[None, :]
            )
            z = rng.uniform(0.2, building_height, n_pts)
            points.append(np.column_stack([xy, z]))
    positions = np.vstack(points)
    return World(positions, np.arange(len(positions)))
