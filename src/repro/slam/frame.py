"""Per-frame observation containers used by tracking.

A :class:`Frame` is the tracking-side view of one camera image after
feature extraction: pixel measurements, descriptors, optional stereo
depth, and (once tracking succeeds) the estimated world->camera pose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..geometry import SE3
from ..vision import ObservedFeature
from ..vision.brief import DESCRIPTOR_BYTES


@dataclass
class Frame:
    """One processed camera frame."""

    frame_id: int
    timestamp: float
    uv: np.ndarray                      # (n, 2) pixel positions
    descriptors: np.ndarray             # (n, 32) packed descriptors
    depths: np.ndarray                  # (n,) metric depths; <=0 when unknown
    right_u: np.ndarray                 # (n,) stereo right columns; <0 if mono
    pose_cw: Optional[SE3] = None       # world->camera, set by tracking
    matched_point_ids: np.ndarray = field(default=None)  # (n,) map-point ids, -1 unmatched

    def __post_init__(self) -> None:
        n = len(self.uv)
        if self.matched_point_ids is None:
            self.matched_point_ids = np.full(n, -1, dtype=np.int64)
        for name, arr, shape in (
            ("uv", self.uv, (n, 2)),
            ("descriptors", self.descriptors, (n, DESCRIPTOR_BYTES)),
            ("depths", self.depths, (n,)),
            ("right_u", self.right_u, (n,)),
            ("matched_point_ids", self.matched_point_ids, (n,)),
        ):
            if tuple(np.shape(arr)) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.shape(arr)}")

    def __len__(self) -> int:
        return len(self.uv)

    @property
    def n_matched(self) -> int:
        return int((self.matched_point_ids >= 0).sum())

    @staticmethod
    def from_observations(
        frame_id: int, timestamp: float, observations: List[ObservedFeature]
    ) -> "Frame":
        """Build a frame from oracle/extractor observations."""
        n = len(observations)
        uv = np.array([obs.uv for obs in observations], dtype=np.float64).reshape(n, 2)
        descriptors = np.array(
            [obs.descriptor for obs in observations], dtype=np.uint8
        ).reshape(n, DESCRIPTOR_BYTES)
        depths = np.array([obs.depth for obs in observations], dtype=np.float64)
        right_u = np.array([obs.right_u for obs in observations], dtype=np.float64)
        return Frame(frame_id, timestamp, uv, descriptors, depths, right_u)
