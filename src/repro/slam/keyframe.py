"""Keyframes: selected frames promoted into the map."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..geometry import SE3
from .frame import Frame


@dataclass
class KeyFrame:
    """A frame kept in the map, with feature->mappoint associations.

    ``point_ids[i]`` is the map-point id observed by feature ``i`` (or -1).
    ``client_id`` tags the originating client for multi-user merging.
    """

    keyframe_id: int
    timestamp: float
    pose_cw: SE3
    uv: np.ndarray
    descriptors: np.ndarray
    depths: np.ndarray
    point_ids: np.ndarray
    client_id: int = 0
    is_bad: bool = False
    # Filled by place recognition: BoW vector as {word_id: weight}.
    bow_vector: Dict[int, float] = field(default_factory=dict)

    @staticmethod
    def from_frame(
        keyframe_id: int, frame: Frame, client_id: int = 0
    ) -> "KeyFrame":
        if frame.pose_cw is None:
            raise ValueError("cannot promote an untracked frame to a keyframe")
        return KeyFrame(
            keyframe_id=keyframe_id,
            timestamp=frame.timestamp,
            pose_cw=frame.pose_cw,
            uv=frame.features.uv.copy(),
            descriptors=frame.features.descriptors.copy(),
            depths=frame.features.depths.copy(),
            point_ids=frame.matched_point_ids.copy(),
            client_id=client_id,
        )

    def __len__(self) -> int:
        return len(self.uv)

    @property
    def n_tracked_points(self) -> int:
        return int((self.point_ids >= 0).sum())

    def camera_center(self) -> np.ndarray:
        return self.pose_cw.camera_center()

    def observed_point_ids(self) -> np.ndarray:
        """Unique map-point ids observed by this keyframe."""
        ids = self.point_ids[self.point_ids >= 0]
        return np.unique(ids)

    def feature_index_of(self, point_id: int) -> int:
        """Index of the feature observing ``point_id``, or -1."""
        hits = np.nonzero(self.point_ids == point_id)[0]
        return int(hits[0]) if len(hits) else -1

    def nbytes(self) -> int:
        """Approximate footprint for map-size accounting (Table 1)."""
        return (
            8 * 3
            + 12 * 8  # pose
            + self.uv.nbytes
            + self.descriptors.nbytes
            + self.depths.nbytes
            + self.point_ids.nbytes
            + 16 * len(self.bow_vector)
        )
