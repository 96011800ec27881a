"""Stereo feature matching: depth from a rectified image pair.

The oracle frontend hands SLAM measured depths directly; this module
implements the real thing for rendered image pairs, validating that the
geometry the oracle shortcuts is soundly recoverable: extract ORB in
both images, match each left feature along its epipolar line (same row,
bounded disparity), and triangulate depth from the disparity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geometry import SE3
from .brief import hamming_distance_matrix
from .camera import StereoRig
from .image import Image
from .orb import OrbExtractor, OrbExtractorConfig
from .render import render_frame

ROW_TOLERANCE_PX = 2.0       # rectification slack
MAX_HAMMING = 60
MIN_DISPARITY = 0.5
MAX_DISPARITY = 150.0


@dataclass
class StereoMatch:
    """One left feature with its recovered disparity and depth."""

    left_idx: int
    right_idx: int
    uv_left: np.ndarray
    disparity: float
    depth: float
    hamming: int


class StereoMatcher:
    """Epipolar ORB matching over a rectified pair."""

    def __init__(
        self,
        rig: StereoRig,
        extractor: Optional[OrbExtractor] = None,
    ) -> None:
        self.rig = rig
        self.extractor = extractor or OrbExtractor(
            OrbExtractorConfig(n_features=200, n_levels=2)
        )

    def match(self, left: Image, right: Image) -> List[StereoMatch]:
        """Match features between a rectified pair and compute depths."""
        feats_l = self.extractor.extract(left)
        feats_r = self.extractor.extract(right)
        if len(feats_l) == 0 or len(feats_r) == 0:
            return []
        uv_l = feats_l.uv
        uv_r = feats_r.uv
        hamming = hamming_distance_matrix(feats_l.descriptors, feats_r.descriptors)
        matches: List[StereoMatch] = []
        taken = set()
        for li in range(len(feats_l)):
            # Epipolar constraint: same row (within tolerance); the right
            # feature sits LEFT of the left feature (positive disparity).
            row_ok = np.abs(uv_r[:, 1] - uv_l[li, 1]) <= ROW_TOLERANCE_PX
            disparity = uv_l[li, 0] - uv_r[:, 0]
            disp_ok = (disparity >= MIN_DISPARITY) & (disparity <= MAX_DISPARITY)
            candidates = np.nonzero(row_ok & disp_ok)[0]
            candidates = [c for c in candidates if c not in taken]
            if not candidates:
                continue
            dists = hamming[li, candidates]
            best = int(np.argmin(dists))
            if dists[best] > MAX_HAMMING:
                continue
            ri = int(candidates[best])
            taken.add(ri)
            disp = float(uv_l[li, 0] - uv_r[ri, 0])
            matches.append(
                StereoMatch(
                    left_idx=li,
                    right_idx=ri,
                    uv_left=uv_l[li],
                    disparity=disp,
                    depth=float(self.rig.depth_from_disparity(disp)),
                    hamming=int(dists[best]),
                )
            )
        return matches


def render_stereo_pair(
    positions: np.ndarray,
    landmark_ids: np.ndarray,
    rig: StereoRig,
    pose_cw: SE3,
    rng: Optional[np.random.Generator] = None,
):
    """Render left and right images of a rectified stereo rig.

    The right camera sits ``baseline`` to the right of the left camera
    along the camera x-axis: ``T_right = T_shift * T_left`` with the
    shift expressed in the left camera frame.
    """
    shift = SE3(np.eye(3), np.array([-rig.baseline, 0.0, 0.0]))
    pose_right = shift * pose_cw
    rng = rng or np.random.default_rng(0)
    left = render_frame(positions, landmark_ids, rig.camera, pose_cw, rng=rng)
    right = render_frame(
        positions, landmark_ids, rig.camera, pose_right,
        rng=np.random.default_rng(rng.integers(1 << 31)),
    )
    return left, right
