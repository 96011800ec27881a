"""Tracking frontend: motion model, local-map search and pose solve.

Mirrors the ORB-SLAM3 tracking thread (paper Fig. 3 "Local Tracking"):

1. predict the pose with a constant-velocity motion model (or an
   externally supplied prior, e.g. the client IMU pose in SLAM-Share),
2. project the local map into the frame and match (*search local
   points* — the stage the paper parallelizes on the GPU),
3. optimize the pose on the matches (PnP Gauss-Newton).

Every call reports a :class:`TrackingWorkload` with the operation counts
(pixels, candidate pairs, iterations) that the GPU/CPU latency models in
:mod:`repro.gpu` convert into the per-stage times of Figs. 5 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..geometry import SE3
from ..vision.brief import descriptor_words
from ..vision.camera import PinholeCamera
from ..vision.matching import (
    FrameGrid,
    Match,
    search_by_projection_vectorized,
)
from .frame import Frame
from .map import SlamMap
from .pnp import solve_pnp


@dataclass
class _LocalMapPack:
    """A cached local map: point objects plus their packed matrices.

    Valid as long as the cache key ``(reference keyframe, map version)``
    holds, so the narrow, wide-retry and refine searches of one frame —
    and every following frame until the map changes — skip the
    covisibility walk, the point gathering and the matrix packing.
    The packed descriptors' Hamming word view (``descriptor_words``) is
    built once per key too.
    """

    key: tuple
    points: List
    positions: np.ndarray       # (n, 3) world positions
    descriptors: np.ndarray     # (n, 32) packed descriptors
    descriptor_words: np.ndarray  # the same block in the Hamming word layout


@dataclass
class TrackingWorkload:
    """Operation counts for one tracked frame (drives latency models)."""

    image_pixels: int = 0           # pixels scanned by feature extraction
    n_features: int = 0             # features extracted in the frame
    n_local_points: int = 0         # local-map points considered
    candidate_pairs: int = 0        # point x feature pairs evaluated
    pnp_iterations: int = 0
    n_matches: int = 0


@dataclass
class TrackingResult:
    frame: Frame
    success: bool
    n_matches: int
    mean_error_px: float
    workload: TrackingWorkload = field(default_factory=TrackingWorkload)


# Projection-search windows: the narrow one around the prior, the wide
# retry when it finds too few matches (the refine search uses 0.8x the
# narrow one around the solved pose).
SEARCH_RADIUS_PX = 10.0
WIDE_SEARCH_RADIUS_PX = 30.0
# Covisible keyframes beside the reference whose points form the local map.
COVISIBLE_NEIGHBORS = 10
# The paper's EuRoC frame (752x480), for latency accounting: the latency
# models charge extraction per pixel of this frame, not of the render.
IMAGE_PIXELS = 752 * 480


@dataclass
class TrackerConfig:
    min_matches: int = 12
    local_map_size: int = 600


class Tracker:
    """Tracks successive frames against a map."""

    def __init__(
        self,
        slam_map: SlamMap,
        camera: PinholeCamera,
        config: Optional[TrackerConfig] = None,
    ) -> None:
        self.map = slam_map
        self.camera = camera
        self.config = config or TrackerConfig()
        self.last_pose: Optional[SE3] = None
        self.velocity: SE3 = SE3.identity()
        self.reference_keyframe_id: Optional[int] = None
        self._local_pack: Optional[_LocalMapPack] = None

    # ------------------------------------------------------------- predict
    def predict_pose(self) -> Optional[SE3]:
        """Constant-velocity prediction from the last two tracked poses."""
        if self.last_pose is None:
            return None
        return self.velocity * self.last_pose

    def _update_motion_model(self, new_pose: SE3) -> None:
        if self.last_pose is not None:
            self.velocity = new_pose * self.last_pose.inverse()
        self.last_pose = new_pose

    # ---------------------------------------------------------- local map
    def _local_map_pack(self) -> _LocalMapPack:
        """The local map with packed matrices, cached on (ref kf, version)."""
        key = (self.reference_keyframe_id, self.map.version)
        if self._local_pack is not None and self._local_pack.key == key:
            return self._local_pack
        if self.reference_keyframe_id is None:
            points: List = []
        else:
            # Mark the tracking reference as in active use so LRU
            # eviction never pulls the local map out from under us.
            self.map.touch_keyframe(self.reference_keyframe_id)
            kf_ids = [self.reference_keyframe_id]
            kf_ids += self.map.covisible_keyframes(
                self.reference_keyframe_id)[:COVISIBLE_NEIGHBORS]
            points = self.map.local_map_points(
                kf_ids, limit=self.config.local_map_size
            )
        if points:
            positions, descriptors = self.map.gather_point_arrays(
                [p.point_id for p in points]
            )
        else:
            positions = np.zeros((0, 3))
            descriptors = np.zeros((0, 0), dtype=np.uint8)
        self._local_pack = _LocalMapPack(
            key, points, positions, descriptors, descriptor_words(descriptors)
        )
        return self._local_pack

    def _project(self, pack: _LocalMapPack, pose: SE3):
        """Project the packed local map once per candidate pose."""
        uv, _, valid = self.camera.project_world(pack.positions, pose)
        visible_idx = np.nonzero(valid)[0]
        return uv[visible_idx], visible_idx

    def _search(
        self,
        pack: _LocalMapPack,
        frame: Frame,
        projection,
        radius: float,
        grid: Optional[FrameGrid] = None,
        frame_words: Optional[np.ndarray] = None,
    ):
        """Match projected local points against frame features.

        ``projection`` is the ``(proj_uv, visible_idx)`` pair from
        :meth:`_project` — computed once per pose and shared by the
        narrow and wide-retry searches; ``grid`` is the frame's spatial
        index, built once per frame and shared by all three searches;
        ``frame_words`` is the frame's descriptor word view, built once
        per :meth:`track` call.
        """
        proj_uv, visible_idx = projection
        if len(visible_idx) == 0:
            return [], 0
        descriptors = pack.descriptors[visible_idx]
        matches = search_by_projection_vectorized(
            proj_uv, descriptors, frame.features.uv, frame.features.descriptors,
            radius=radius, grid=grid,
            point_words=pack.descriptor_words,
            frame_words=frame_words,
            point_rows=visible_idx,
        )
        # Re-index matches back to the full candidate list.
        rows = visible_idx.tolist()
        remapped = [Match(rows[m.query_idx], m.train_idx, m.distance) for m in matches]
        return remapped, len(visible_idx) * len(frame)

    # ---------------------------------------------------------------- track
    def track(self, frame: Frame, pose_prior: Optional[SE3] = None) -> TrackingResult:
        """Track one frame; sets ``frame.pose_cw`` on success."""
        cfg = self.config
        workload = TrackingWorkload(
            image_pixels=IMAGE_PIXELS, n_features=len(frame)
        )
        prior = pose_prior if pose_prior is not None else self.predict_pose()
        if prior is None:
            return TrackingResult(frame, False, 0, float("inf"), workload)
        pack = self._local_map_pack()
        points = pack.points
        workload.n_local_points = len(points)
        if len(points) < 4:
            return TrackingResult(frame, False, 0, float("inf"), workload)

        features = frame.features
        grid = FrameGrid(features.uv) if len(frame) > 0 else None
        # One word view shared by the narrow, wide-retry and refine
        # searches of this frame.
        frame_words = descriptor_words(features.descriptors)
        prior_projection = self._project(pack, prior)
        matches, pairs = self._search(
            pack, frame, prior_projection, SEARCH_RADIUS_PX, grid,
            frame_words,
        )
        workload.candidate_pairs += pairs
        if len(matches) < cfg.min_matches:
            # Wide-window retry: the prior may be poor (high RTT, fast
            # turn).  Same pose, so the projection is reused as-is.
            matches, pairs = self._search(
                pack, frame, prior_projection, WIDE_SEARCH_RADIUS_PX, grid,
                frame_words,
            )
            workload.candidate_pairs += pairs
        if len(matches) < 4:
            return TrackingResult(frame, False, len(matches), float("inf"), workload)

        q_idx = np.array([m.query_idx for m in matches], dtype=np.intp)
        t_idx = np.array([m.train_idx for m in matches], dtype=np.intp)
        pts_w = pack.positions[q_idx]
        uv = features.uv[t_idx]
        depths = features.depths[t_idx]
        result = solve_pnp(pts_w, uv, self.camera, prior, depths=depths)
        if result.n_inliers >= 4:
            # Second round: re-associate with the *refined* pose and
            # re-optimize (ORB-SLAM3's TrackLocalMap after
            # TrackWithMotionModel).  Matching around the prior alone
            # biases the correspondence set toward the prior's error —
            # that bias compounds through the motion model and blows up
            # within a few tens of frames.
            matches2, pairs2 = self._search(
                pack, frame, self._project(pack, result.pose_cw),
                SEARCH_RADIUS_PX * 0.8, grid, frame_words,
            )
            workload.candidate_pairs += pairs2
            if len(matches2) >= 4:
                matches = matches2
                q_idx = np.array([m.query_idx for m in matches], dtype=np.intp)
                t_idx = np.array([m.train_idx for m in matches], dtype=np.intp)
                pts_w = pack.positions[q_idx]
                uv = features.uv[t_idx]
                depths = features.depths[t_idx]
                result = solve_pnp(
                    pts_w, uv, self.camera, result.pose_cw, depths=depths
                )
        workload.pnp_iterations = result.iterations
        if result.n_inliers < cfg.min_matches:
            return TrackingResult(
                frame, False, result.n_inliers, result.mean_error_px, workload
            )

        frame.pose_cw = result.pose_cw
        for m, inlier in zip(matches, result.inliers):
            point = points[m.query_idx]
            point.times_visible += 1
            if inlier:
                frame.matched_point_ids[m.train_idx] = point.point_id
                point.times_found += 1
        workload.n_matches = result.n_inliers
        self._update_motion_model(result.pose_cw)
        return TrackingResult(
            frame, True, result.n_inliers, result.mean_error_px, workload
        )

    def force_pose(self, pose: SE3) -> None:
        """Seed the motion model (bootstrap or after relocalization)."""
        self.last_pose = pose
        self.velocity = SE3.identity()
