"""Relocalization: recover a lost tracker via place recognition.

When tracking loses the map (occlusion, aggressive motion, long network
outage past what the IMU can bridge), ORB-SLAM3 queries the keyframe
database with the current frame's BoW vector, matches descriptors
against the candidates' map points, and solves a RANSAC PnP without any
pose prior.  Successful relocalization re-seeds the motion model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geometry import SE3
from ..vision.camera import PinholeCamera
from ..vision.matching import match_descriptors
from .bow import KeyframeDatabase, Vocabulary
from .frame import Frame
from .map import SlamMap
from .pnp import solve_pnp_ransac

# Keyframe-database query: the best few candidates above a BoW score.
MIN_BOW_SCORE = 0.05
MAX_CANDIDATES = 5
# Matches needed to try a candidate, inliers needed to accept its pose.
MIN_MATCHES = 15
MIN_INLIERS = 12
DESCRIPTOR_MAX_DISTANCE = 64


@dataclass
class RelocalizationResult:
    success: bool
    pose_cw: Optional[SE3] = None
    anchor_keyframe_id: Optional[int] = None
    n_inliers: int = 0
    n_candidates_tried: int = 0


class Relocalizer:
    """BoW-seeded pose recovery against a map."""

    def __init__(
        self,
        slam_map: SlamMap,
        database: KeyframeDatabase,
        vocabulary: Vocabulary,
        camera: PinholeCamera,
        seed: int = 17,
    ) -> None:
        self.map = slam_map
        self.database = database
        self.vocabulary = vocabulary
        self.camera = camera
        self._rng = np.random.default_rng(seed)

    def relocalize(self, frame: Frame) -> RelocalizationResult:
        """Attempt to localize a frame with no pose prior."""
        if len(frame) < MIN_MATCHES:
            return RelocalizationResult(False)
        bow = self.vocabulary.transform(frame.features.descriptors)
        candidates = self.database.query(
            bow, min_score=MIN_BOW_SCORE, max_results=MAX_CANDIDATES
        )
        tried = 0
        for candidate in candidates:
            keyframe = self.map.keyframes.get(candidate.keyframe_id)
            if keyframe is None:
                continue
            tried += 1
            matches = match_descriptors(
                frame.features.descriptors,
                keyframe.descriptors,
                max_distance=DESCRIPTOR_MAX_DISTANCE,
            )
            pts_w: List[np.ndarray] = []
            uv: List[np.ndarray] = []
            feat_of_match: List[int] = []
            point_of_match: List[int] = []
            for m in matches:
                pid = int(keyframe.point_ids[m.train_idx])
                point = self.map.mappoints.get(pid) if pid >= 0 else None
                if point is None or point.is_bad:
                    continue
                pts_w.append(point.position)
                uv.append(frame.features.uv[m.query_idx])
                feat_of_match.append(m.query_idx)
                point_of_match.append(pid)
            if len(pts_w) < MIN_MATCHES:
                continue
            # No prior: seed RANSAC hypotheses from the anchor keyframe's
            # pose (the camera saw the same place from *somewhere* nearby).
            result = solve_pnp_ransac(
                np.array(pts_w),
                np.array(uv),
                self.camera,
                keyframe.pose_cw,
                self._rng,
                min_inliers=MIN_INLIERS,
            )
            if result is None:
                continue
            frame.pose_cw = result.pose_cw
            for idx, inlier in zip(range(len(feat_of_match)), result.inliers):
                if inlier:
                    frame.matched_point_ids[feat_of_match[idx]] = point_of_match[idx]
            return RelocalizationResult(
                success=True,
                pose_cw=result.pose_cw,
                anchor_keyframe_id=keyframe.keyframe_id,
                n_inliers=result.n_inliers,
                n_candidates_tried=tried,
            )
        return RelocalizationResult(False, n_candidates_tried=tried)
