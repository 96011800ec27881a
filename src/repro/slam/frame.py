"""Per-frame observation containers used by tracking.

A :class:`Frame` is the tracking-side view of one camera image after
feature extraction: the frame's :class:`~repro.vision.orb.FeatureSet`
exactly as the extractor or the feature oracle returned it, and (once
tracking succeeds) the estimated world->camera pose and the map point
each feature matched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..geometry import SE3
from ..vision.orb import FeatureSet


@dataclass
class Frame:
    """One processed camera frame."""

    frame_id: int
    timestamp: float
    features: FeatureSet
    pose_cw: Optional[SE3] = None       # world->camera, set by tracking
    matched_point_ids: np.ndarray = field(default=None)  # (n,) map-point ids, -1 unmatched

    def __post_init__(self) -> None:
        n = len(self.features)
        if self.matched_point_ids is None:
            self.matched_point_ids = np.full(n, -1, dtype=np.int64)
        elif np.shape(self.matched_point_ids) != (n,):
            raise ValueError(
                f"matched_point_ids must have shape {(n,)}, "
                f"got {np.shape(self.matched_point_ids)}"
            )

    def __len__(self) -> int:
        return len(self.features)
