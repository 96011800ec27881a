"""Geometry substrate: rotation groups, rigid/similarity transforms,
point-set alignment and timestamped trajectories."""

from . import quaternion, se3_batch, so3
from .alignment import ransac_umeyama, umeyama
from .se3 import SE3, random_se3
from .sim3 import Sim3
from .trajectory import Trajectory, TrajectoryPoint

__all__ = [
    "SE3",
    "Sim3",
    "Trajectory",
    "TrajectoryPoint",
    "quaternion",
    "random_se3",
    "ransac_umeyama",
    "se3_batch",
    "so3",
    "umeyama",
]
